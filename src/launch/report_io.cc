#include "launch/report_io.h"

#include <cstdio>
#include <sstream>

#include "common/line_reader.h"

namespace pr {
namespace {

// Floats get the shorter exact form: 9 significant decimal digits
// round-trip any binary32 value.
std::string NumF(float v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.9g", static_cast<double>(v));
  return buf;
}

}  // namespace

std::string SerializeProcessReport(const ProcessReport& report) {
  std::ostringstream out;
  out << "prreport 1\n";
  out << "node " << report.node << "\n";
  out << "role " << report.role << "\n";
  out << "strategy " << report.strategy << "\n";
  out << "wall_seconds " << FormatExact(report.wall_seconds) << "\n";
  out << "group_reduces " << report.group_reduces << "\n";
  for (size_t w = 0; w < report.worker_iterations.size(); ++w) {
    if (report.worker_iterations[w] == 0) continue;
    out << "iterations " << w << " " << report.worker_iterations[w] << "\n";
  }
  out << "num_workers " << report.worker_iterations.size() << "\n";
  for (size_t w = 0; w < report.worker_finish_seconds.size(); ++w) {
    if (report.worker_finish_seconds[w] == 0.0) continue;
    out << "finish " << w << " " << FormatExact(report.worker_finish_seconds[w])
        << "\n";
  }
  out << "replica " << report.replica.size();
  for (float v : report.replica) out << " " << NumF(v);
  out << "\n";
  for (const auto& [name, value] : report.metrics.counters) {
    out << "counter " << name << " " << FormatExact(value) << "\n";
  }
  for (const auto& [name, value] : report.metrics.gauges) {
    out << "gauge " << name << " " << FormatExact(value) << "\n";
  }
  for (const auto& [name, h] : report.metrics.histograms) {
    out << "hist " << name << " " << h.upper_bounds.size();
    for (double b : h.upper_bounds) out << " " << FormatExact(b);
    for (uint64_t c : h.counts) out << " " << c;
    out << " " << h.total_count << " " << FormatExact(h.sum) << "\n";
  }
  out << "end\n";
  return out.str();
}

Status ParseProcessReport(const std::string& text, ProcessReport* out) {
  ProcessReport report;
  LineReader lines(text, "prreport", 1);
  bool saw_end = false;
  size_t num_workers = 0;
  // Sparse per-worker entries arrive before the num_workers line is
  // guaranteed to have been seen, so stage them and resize at the end.
  std::vector<std::pair<size_t, size_t>> iteration_entries;
  std::vector<std::pair<size_t, double>> finish_entries;

  while (lines.Next()) {
    const std::string_view key = lines.key();
    if (saw_end) return lines.Error("content after 'end' sentinel");
    if (key == "node") {
      PR_RETURN_NOT_OK(lines.Take(&report.node));
    } else if (key == "role") {
      PR_RETURN_NOT_OK(lines.Take(&report.role));
    } else if (key == "strategy") {
      PR_RETURN_NOT_OK(lines.Take(&report.strategy));
    } else if (key == "wall_seconds") {
      PR_RETURN_NOT_OK(lines.Take(&report.wall_seconds));
    } else if (key == "group_reduces") {
      PR_RETURN_NOT_OK(lines.Take(&report.group_reduces));
    } else if (key == "num_workers") {
      PR_RETURN_NOT_OK(lines.Take(&num_workers));
    } else if (key == "iterations") {
      auto& [w, n] = iteration_entries.emplace_back();
      PR_RETURN_NOT_OK(lines.Take(&w));
      PR_RETURN_NOT_OK(lines.Take(&n));
    } else if (key == "finish") {
      auto& [w, t] = finish_entries.emplace_back();
      PR_RETURN_NOT_OK(lines.Take(&w));
      PR_RETURN_NOT_OK(lines.Take(&t));
    } else if (key == "replica") {
      size_t n = 0;
      PR_RETURN_NOT_OK(lines.Take(&n));
      report.replica.clear();
      PR_RETURN_NOT_OK(lines.TakeAll(&report.replica));
      if (report.replica.size() != n) {
        return lines.Error("replica holds " +
                           std::to_string(report.replica.size()) +
                           " values, not " + std::to_string(n));
      }
    } else if (key == "counter" || key == "gauge") {
      auto& metrics = key == "counter" ? report.metrics.counters
                                       : report.metrics.gauges;
      std::string name;
      PR_RETURN_NOT_OK(lines.Take(&name));
      PR_RETURN_NOT_OK(lines.Take(&metrics[name]));
    } else if (key == "hist") {
      std::string name;
      size_t num_bounds = 0;
      PR_RETURN_NOT_OK(lines.Take(&name));
      PR_RETURN_NOT_OK(lines.Take(&num_bounds));
      HistogramSnapshot& h = report.metrics.histograms[name];
      h.upper_bounds.resize(num_bounds);
      for (double& b : h.upper_bounds) PR_RETURN_NOT_OK(lines.Take(&b));
      h.counts.resize(num_bounds + 1);
      for (uint64_t& c : h.counts) PR_RETURN_NOT_OK(lines.Take(&c));
      PR_RETURN_NOT_OK(lines.Take(&h.total_count));
      PR_RETURN_NOT_OK(lines.Take(&h.sum));
    } else if (key == "end") {
      saw_end = true;
    } else {
      return lines.Error("unknown key '" + std::string(key) + "'");
    }
  }
  PR_RETURN_NOT_OK(lines.status());
  if (!saw_end) {
    return Status::InvalidArgument(
        "report has no 'end' sentinel (writer died mid-report?)");
  }
  report.worker_iterations.assign(num_workers, 0);
  report.worker_finish_seconds.assign(num_workers, 0.0);
  for (const auto& [w, n] : iteration_entries) {
    if (w >= num_workers) return Status::InvalidArgument("iterations index");
    report.worker_iterations[w] = n;
  }
  for (const auto& [w, t] : finish_entries) {
    if (w >= num_workers) return Status::InvalidArgument("finish index");
    report.worker_finish_seconds[w] = t;
  }
  *out = std::move(report);
  return Status::OK();
}

Status SaveProcessReport(const std::string& path,
                         const ProcessReport& report) {
  return WriteFileAtomically(path, SerializeProcessReport(report));
}

Status LoadProcessReport(const std::string& path, ProcessReport* out) {
  std::string text;
  PR_RETURN_NOT_OK(ReadTextFile(path, &text));
  return ParseProcessReport(text, out);
}

}  // namespace pr
