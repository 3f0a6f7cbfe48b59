// Datatype sizes and reduction-operator application.
#pragma once

#include <cstddef>

#include "mpi/types.hpp"

namespace smpi {

/// Apply `inout[i] = op(inout[i], in[i])` elementwise over `count` elements
/// of type `dt`. Complex types support kSum and kProd only.
void apply_op(Op op, Datatype dt, const void* in, void* inout, std::size_t count);

/// A reduction's (op, datatype) pair is one apply_op can combine: kMax and
/// kMin are not defined on the complex types. Throws std::invalid_argument
/// naming `call` otherwise, so the misuse fails at the call on every rank
/// (with or without data), not in the schedule's first combine.
void check_reduce_op(const char* call, Op op, Datatype dt);

/// A reduction's send and receive buffers ([sbuf, sbuf + bytes) and
/// [rbuf, rbuf + bytes)) are either the same buffer (in place) or disjoint,
/// as MPI requires. Throws std::invalid_argument naming `call` on a partial
/// overlap.
void check_reduce_buffers(const char* call, const void* sbuf, const void* rbuf,
                          std::size_t bytes);

}  // namespace smpi
