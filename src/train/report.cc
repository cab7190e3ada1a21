#include "train/report.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

#include "common/check.h"
#include "obs/json.h"

namespace pr {

TablePrinter::TablePrinter(std::vector<std::string> headers)
    : headers_(std::move(headers)) {
  PR_CHECK(!headers_.empty());
}

void TablePrinter::AddRow(std::vector<std::string> cells) {
  PR_CHECK_EQ(cells.size(), headers_.size());
  rows_.push_back(std::move(cells));
}

std::string TablePrinter::Render() const {
  std::vector<size_t> widths(headers_.size());
  for (size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  std::ostringstream out;
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (size_t c = 0; c < row.size(); ++c) {
      out << (c == 0 ? "| " : " | ");
      out << row[c];
      out << std::string(widths[c] - row[c].size(), ' ');
    }
    out << " |\n";
  };
  emit_row(headers_);
  out << "|";
  for (size_t c = 0; c < headers_.size(); ++c) {
    out << std::string(widths[c] + 2, '-') << "|";
  }
  out << "\n";
  for (const auto& row : rows_) emit_row(row);
  return out.str();
}

void TablePrinter::Print() const { std::cout << Render() << std::flush; }

std::string FormatDouble(double value, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, value);
  return buf;
}

std::string FormatSpeedup(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.2fx", value);
  return buf;
}

bool WriteCsv(const std::string& path,
              const std::vector<std::string>& headers,
              const std::vector<std::vector<std::string>>& rows) {
  std::ofstream out(path);
  if (!out) return false;
  auto emit = [&](const std::vector<std::string>& cells) {
    for (size_t i = 0; i < cells.size(); ++i) {
      if (i > 0) out << ",";
      out << cells[i];
    }
    out << "\n";
  };
  emit(headers);
  for (const auto& row : rows) emit(row);
  return static_cast<bool>(out);
}

bool WriteTextFile(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  if (!out) return false;
  out << content;
  return static_cast<bool>(out);
}

std::string RunReportJson(const RunResult& result) {
  JsonWriter w;
  w.BeginObject();
  w.Key("strategy").String(result.strategy);
  w.Key(result.engine == EngineKind::kSim ? "sim_seconds" : "wall_seconds")
      .Number(result.clock_seconds);
  w.Key("updates").UInt(result.updates);
  w.Key("final_accuracy").Number(result.final_accuracy);
  w.Key("metrics");
  WriteMetricsSnapshot(&w, result.metrics);
  w.Key("trace");
  WriteTraceLog(&w, result.trace);
  w.EndObject();
  return w.str();
}

}  // namespace pr
