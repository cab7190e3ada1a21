#pragma once

#include <string>
#include <vector>

#include "strategies/run_config.h"

namespace pr {

/// \brief Minimal fixed-width table printer for benchmark reports.
///
/// Benches print paper-style tables (Table 1 rows, figure series) to
/// stdout; this keeps the formatting consistent and dependency-free.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers);

  void AddRow(std::vector<std::string> cells);

  /// Renders the table with a header rule. Column widths fit the content.
  std::string Render() const;

  /// Convenience: renders and writes to stdout.
  void Print() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with `digits` decimal places.
std::string FormatDouble(double value, int digits = 3);

/// Formats a ratio as "1.84x".
std::string FormatSpeedup(double value);

/// Writes rows as CSV to `path` (headers first). Returns false on IO error.
bool WriteCsv(const std::string& path,
              const std::vector<std::string>& headers,
              const std::vector<std::vector<std::string>>& rows);

/// Writes `content` verbatim to `path`. Returns false on IO error.
bool WriteTextFile(const std::string& path, const std::string& content);

/// JSON report of one run: headline numbers ("strategy", the clock,
/// "updates", "final_accuracy") plus the full "metrics" snapshot and
/// "trace" log under the shared observability naming. The clock key names
/// the engine's clock: "wall_seconds" for a threaded run, "sim_seconds" for
/// a simulated one.
std::string RunReportJson(const RunResult& result);

}  // namespace pr
