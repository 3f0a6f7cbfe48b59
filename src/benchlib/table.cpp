#include "benchlib/table.hpp"

#include <algorithm>
#include <cstdio>
#include <iomanip>

namespace benchlib {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

Table& Table::row(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
  return *this;
}

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> width(headers_.size());
  for (std::size_t i = 0; i < headers_.size(); ++i) width[i] = headers_[i].size();
  for (const auto& r : rows_) {
    for (std::size_t i = 0; i < r.size() && i < width.size(); ++i) {
      width[i] = std::max(width[i], r[i].size());
    }
  }
  auto line = [&] {
    for (std::size_t w : width) os << '+' << std::string(w + 2, '-');
    os << "+\n";
  };
  auto emit = [&](const std::vector<std::string>& cells) {
    for (std::size_t i = 0; i < width.size(); ++i) {
      const std::string& c = i < cells.size() ? cells[i] : std::string();
      os << "| " << std::setw(static_cast<int>(width[i])) << c << ' ';
    }
    os << "|\n";
  };
  line();
  emit(headers_);
  line();
  for (const auto& r : rows_) emit(r);
  line();
}

std::string fmt_us(double us, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, us);
  return buf;
}

std::string fmt_ms(double ms, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, ms);
  return buf;
}

std::string fmt_pct(double frac01, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f%%", precision, frac01 * 100.0);
  return buf;
}

std::string fmt_bytes(std::size_t bytes) {
  char buf[64];
  if (bytes >= (1u << 20) && bytes % (1u << 20) == 0) {
    std::snprintf(buf, sizeof buf, "%zuM", bytes >> 20);
  } else if (bytes >= 1024 && bytes % 1024 == 0) {
    std::snprintf(buf, sizeof buf, "%zuK", bytes >> 10);
  } else {
    std::snprintf(buf, sizeof buf, "%zu", bytes);
  }
  return buf;
}

std::string fmt_double(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

std::string fmt_int(long long v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%lld", v);
  return buf;
}

}  // namespace benchlib
