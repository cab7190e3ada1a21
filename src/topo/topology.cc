#include "topo/topology.h"

#include <algorithm>
#include <cctype>
#include <set>
#include <sstream>
#include <unordered_set>

#include "common/line_reader.h"
#include "obs/json.h"

namespace pr {
namespace {

Status ValidatePlacement(const std::vector<std::vector<int>>& nodes) {
  std::unordered_set<int> seen;
  int max_worker = -1;
  for (size_t n = 0; n < nodes.size(); ++n) {
    if (nodes[n].empty()) {
      return Status::InvalidArgument("topology: node " + std::to_string(n) +
                                     " is empty");
    }
    for (int worker : nodes[n]) {
      if (worker < 0) {
        return Status::InvalidArgument("topology: negative worker id " +
                                       std::to_string(worker));
      }
      if (!seen.insert(worker).second) {
        return Status::InvalidArgument("topology: worker " +
                                       std::to_string(worker) +
                                       " mapped to two nodes");
      }
      max_worker = std::max(max_worker, worker);
    }
  }
  if (!nodes.empty() && max_worker + 1 != static_cast<int>(seen.size())) {
    return Status::InvalidArgument(
        "topology: worker ids must be contiguous 0.." +
        std::to_string(max_worker));
  }
  return Status::OK();
}

}  // namespace

Topology Topology::Uniform(int num_nodes, int workers_per_node) {
  Topology topo;
  if (num_nodes <= 0 || workers_per_node <= 0) return topo;
  std::vector<std::vector<int>> nodes(static_cast<size_t>(num_nodes));
  int next = 0;
  for (auto& node : nodes) {
    for (int i = 0; i < workers_per_node; ++i) node.push_back(next++);
  }
  Status status = FromNodes(nodes, &topo);
  PR_CHECK(status.ok()) << status.message();
  return topo;
}

Status Topology::FromNodes(const std::vector<std::vector<int>>& nodes,
                           Topology* out) {
  Status status = ValidatePlacement(nodes);
  if (!status.ok()) return status;
  // Sets only the placement, preserving cost knobs already on *out (the
  // parsers set inter_cost before the node list arrives).
  out->nodes_ = nodes;
  int num_workers = 0;
  for (const auto& node : nodes) {
    num_workers += static_cast<int>(node.size());
  }
  out->num_workers_ = num_workers;
  out->node_of_.assign(static_cast<size_t>(num_workers), 0);
  for (size_t n = 0; n < nodes.size(); ++n) {
    for (int worker : nodes[n]) {
      out->node_of_[static_cast<size_t>(worker)] = static_cast<int>(n);
    }
  }
  return Status::OK();
}

double Topology::RingCost(const std::vector<int>& members) const {
  if (members.size() < 2) return 0.0;
  double cost = 0.0;
  for (size_t i = 0; i < members.size(); ++i) {
    cost += LinkCost(members[i], members[(i + 1) % members.size()]);
  }
  return cost;
}

int Topology::NodesSpanned(const std::vector<int>& members) const {
  if (flat() || members.empty()) return members.empty() ? 0 : 1;
  std::set<int> nodes;
  for (int member : members) nodes.insert(NodeOf(member));
  return static_cast<int>(nodes.size());
}

std::string Topology::Serialize() const {
  std::ostringstream out;
  out << "prtopo 1\n";
  for (const auto& node : nodes_) {
    out << "node";
    for (int worker : node) out << ' ' << worker;
    out << '\n';
  }
  out << "inter_cost " << FormatShortest(inter_cost_) << '\n';
  out << "inter_latency_factor " << FormatShortest(inter_latency_factor_)
      << '\n';
  return out.str();
}

Status Topology::Parse(const std::string& text, Topology* out) {
  LineReader lines(text, "prtopo", 1);
  std::vector<std::vector<int>> nodes;
  Topology topo;
  while (lines.Next()) {
    const std::string_view key = lines.key();
    if (key == "node") {
      PR_RETURN_NOT_OK(lines.TakeAll(&nodes.emplace_back()));
    } else if (key == "inter_cost") {
      PR_RETURN_NOT_OK(lines.Take(&topo.inter_cost_));
      if (!(topo.inter_cost_ > 0.0)) return lines.Bad();
    } else if (key == "inter_latency_factor") {
      PR_RETURN_NOT_OK(lines.Take(&topo.inter_latency_factor_));
      if (!(topo.inter_latency_factor_ > 0.0)) return lines.Bad();
    } else {
      // Unknown keys are version skew, not noise to skip.
      return lines.Error("unknown key '" + std::string(key) + "'");
    }
  }
  PR_RETURN_NOT_OK(lines.status());
  if (!nodes.empty()) PR_RETURN_NOT_OK(FromNodes(nodes, &topo));
  *out = std::move(topo);
  return Status::OK();
}

std::string Topology::ToJson() const {
  JsonWriter writer;
  writer.BeginObject();
  writer.Key("prtopo").Int(1);
  writer.Key("nodes").BeginArray();
  for (const auto& node : nodes_) {
    writer.BeginArray();
    for (int worker : node) writer.Int(worker);
    writer.EndArray();
  }
  writer.EndArray();
  writer.Key("inter_cost").Number(inter_cost_);
  writer.Key("inter_latency_factor").Number(inter_latency_factor_);
  writer.EndObject();
  return writer.str();
}

Status Topology::FromJson(const std::string& json, Topology* out) {
  JsonValue doc;
  PR_RETURN_NOT_OK(ParseJson(json, &doc));
  if (!doc.is_object()) {
    return Status::InvalidArgument("topology json: not an object");
  }
  const JsonValue* marker = doc.Find("prtopo");
  if (marker == nullptr || !marker->is_number() ||
      marker->number_value() != 1.0) {
    return Status::InvalidArgument("topology json: missing 'prtopo': 1");
  }
  Topology topo;
  std::vector<std::vector<int>> nodes;
  for (const auto& [key, value] : doc.members()) {
    if (key == "prtopo") continue;
    if (key == "nodes") {
      if (!value.is_array()) {
        return Status::InvalidArgument("topology json: 'nodes' not an array");
      }
      for (const JsonValue& node : value.items()) {
        if (!node.is_array()) {
          return Status::InvalidArgument(
              "topology json: node entry not an array");
        }
        std::vector<int>& workers = nodes.emplace_back();
        for (const JsonValue& worker : node.items()) {
          PR_RETURN_NOT_OK(JsonInt(worker, "topology json: worker id",
                                   &workers.emplace_back()));
        }
      }
    } else if (key == "inter_cost") {
      if (!value.is_number() || value.number_value() <= 0.0) {
        return Status::InvalidArgument("topology json: bad inter_cost");
      }
      topo.inter_cost_ = value.number_value();
    } else if (key == "inter_latency_factor") {
      if (!value.is_number() || value.number_value() <= 0.0) {
        return Status::InvalidArgument(
            "topology json: bad inter_latency_factor");
      }
      topo.inter_latency_factor_ = value.number_value();
    } else {
      return Status::InvalidArgument("topology json: unknown key: " + key);
    }
  }
  if (!nodes.empty()) PR_RETURN_NOT_OK(FromNodes(nodes, &topo));
  *out = std::move(topo);
  return Status::OK();
}

Status Topology::Load(const std::string& path, Topology* out) {
  std::string text;
  PR_RETURN_NOT_OK(ReadTextFile(path, &text));
  return IsJsonObjectText(text) ? FromJson(text, out) : Parse(text, out);
}

}  // namespace pr
