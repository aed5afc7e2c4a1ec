#include "support/table.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "support/error.hpp"
#include "support/strings.hpp"

namespace gs {

namespace {

/// Terminal columns a UTF-8 cell takes: one per code point.
std::size_t display_width(const std::string& s) {
  return static_cast<std::size_t>(
      std::count_if(s.begin(), s.end(), [](char ch) {
        return (static_cast<unsigned char>(ch) & 0xC0) != 0x80;
      }));
}

}  // namespace

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  GS_CHECK_MSG(!headers_.empty(), "table needs at least one column");
}

Table& Table::new_row() {
  if (!rows_.empty()) {
    GS_CHECK_MSG(rows_.back().size() == headers_.size(),
                 "previous row incomplete");
  }
  rows_.emplace_back();
  return *this;
}

Table& Table::add(std::string cell) {
  GS_CHECK_MSG(!rows_.empty(), "call new_row() before add()");
  GS_CHECK_MSG(rows_.back().size() < headers_.size(), "row overflow");
  rows_.back().push_back(std::move(cell));
  return *this;
}

Table& Table::add(double value) { return add(format_double(value)); }

Table& Table::add(long value) { return add(std::to_string(value)); }

const std::string& Table::cell(std::size_t row, std::size_t col) const {
  GS_CHECK(row < rows_.size() && col < rows_[row].size());
  return rows_[row][col];
}

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = display_width(headers_[c]);
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], display_width(row[c]));
    }
  }
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      const std::string& cell = c < row.size() ? row[c] : std::string{};
      os << "  " << cell << std::string(widths[c] - display_width(cell), ' ');
    }
    os << '\n';
  };
  emit_row(headers_);
  std::size_t total = 0;
  for (std::size_t w : widths) total += w + 2;
  os << std::string(total, '-') << '\n';
  for (const auto& row : rows_) emit_row(row);
}

std::string Table::to_csv() const {
  auto quote = [](const std::string& cell) {
    if (cell.find(',') == std::string::npos) return cell;
    return '"' + cell + '"';
  };
  std::ostringstream os;
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    if (c) os << ',';
    os << quote(headers_[c]);
  }
  os << '\n';
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c) os << ',';
      os << quote(row[c]);
    }
    os << '\n';
  }
  return os.str();
}

}  // namespace gs
