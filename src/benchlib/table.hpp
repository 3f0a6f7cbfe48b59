// Fixed-width table printing for benchmark harnesses (paper-style rows).
#pragma once

#include <iostream>
#include <string>
#include <vector>

namespace benchlib {

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  Table& row(std::vector<std::string> cells);
  void print(std::ostream& os = std::cout) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

// Formatting helpers.
std::string fmt_us(double us, int precision = 2);
std::string fmt_ms(double ms, int precision = 2);
std::string fmt_pct(double frac01, int precision = 0);  ///< 0.87 -> "87%"
std::string fmt_bytes(std::size_t bytes);               ///< 131072 -> "128K"
std::string fmt_double(double v, int precision = 2);
std::string fmt_int(long long v);

}  // namespace benchlib
