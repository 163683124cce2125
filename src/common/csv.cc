#include "common/csv.h"

#include <cstdio>
#include <sstream>

#include "common/atomic_file.h"

namespace tbf {

namespace {

bool NeedsQuoting(const std::string& cell) {
  return cell.find_first_of(",\"\n\r") != std::string::npos;
}

std::string QuoteCell(const std::string& cell) {
  if (!NeedsQuoting(cell)) return cell;
  std::string out = "\"";
  for (char c : cell) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

CsvWriter::CsvWriter(std::vector<std::string> header) : header_(std::move(header)) {}

Status CsvWriter::AddRow(const std::vector<std::string>& cells) {
  if (cells.size() != header_.size()) {
    return Status::InvalidArgument("row arity != header arity");
  }
  rows_.push_back(cells);
  return Status::OK();
}

Status CsvWriter::AddRow(const std::vector<double>& cells) {
  std::vector<std::string> text;
  text.reserve(cells.size());
  for (double v : cells) text.push_back(FormatDouble(v));
  return AddRow(text);
}

std::string CsvWriter::ToString() const {
  std::ostringstream out;
  auto emit_row = [&out](const std::vector<std::string>& row) {
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out << ',';
      out << QuoteCell(row[i]);
    }
    out << '\n';
  };
  emit_row(header_);
  for (const auto& row : rows_) emit_row(row);
  return out.str();
}

Status CsvWriter::WriteFile(const std::string& path) const {
  return WriteFileAtomic(path, ToString(), "csv");
}

Result<std::vector<std::vector<std::string>>> ParseCsv(const std::string& text) {
  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> row;
  std::string cell;
  bool in_quotes = false;
  bool row_has_data = false;
  for (size_t i = 0; i < text.size(); ++i) {
    char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          cell += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        cell += c;
      }
      continue;
    }
    switch (c) {
      case '"':
        in_quotes = true;
        row_has_data = true;
        break;
      case ',':
        row.push_back(std::move(cell));
        cell.clear();
        row_has_data = true;
        break;
      case '\r':
        break;
      case '\n':
        if (row_has_data || !cell.empty()) {
          row.push_back(std::move(cell));
          cell.clear();
          rows.push_back(std::move(row));
          row.clear();
          row_has_data = false;
        }
        break;
      default:
        cell += c;
        row_has_data = true;
    }
  }
  if (in_quotes) return Status::InvalidArgument("unterminated quoted cell");
  if (row_has_data || !cell.empty()) {
    row.push_back(std::move(cell));
    rows.push_back(std::move(row));
  }
  return rows;
}

Result<std::vector<std::vector<std::string>>> ReadCsvFile(const std::string& path) {
  TBF_ASSIGN_OR_RETURN(const std::string text, ReadFileToString(path, "csv"));
  return ParseCsv(text);
}

}  // namespace tbf
