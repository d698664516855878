#include "layer_split.hpp"

#include <algorithm>
#include <stdexcept>

#include "netcore/obs/json.hpp"

namespace perfbench {

namespace {

/// Span name -> layer metric. Spans no rule claims stay in residual_s.
const char* layer_of(std::string_view name) {
    struct Rule {
        std::string_view span;
        const char* layer;
        bool prefix;
    };
    static constexpr Rule kRules[] = {
        {"bench.run_scenario", "isp.other_s", false},
        {"scenario.run", "isp.other_s", false},
        {"scenario.build", "isp.build_s", false},
        {"scenario.sim_run", "sim.run_s", false},
        {"scenario.emit", "atlas.emit_s", false},
        {"bench.close", "atlas.close_s", false},
        {"bench.stream", "atlas.decode_s", false},
        {"datasets.stream_binary_bundle", "atlas.decode_s", false},
        {"bench.read", "atlas.read_s", false},
        {"datasets.read", "atlas.read_s", true},
        {"bench.open", "core.feed_s", false},
        {"pipeline.finalize", "core.finalize_s", true},  // and its shards
        {"bench.finish", "core.finish_s", false},
        {"bench.batch_run", "core.batch_run_s", false},
        {"pipeline.run", "core.batch_run_s", false},
        {"pipeline.periodicity", "core.periodicity_s", false},
        {"pipeline.prefix_changes", "core.prefix_changes_s", false},
        {"pipeline.outages", "core.outages_s", false},
        {"bench.audit", "core.audit_s", false},
    };
    for (const Rule& rule : kRules)
        if (rule.prefix ? name.starts_with(rule.span) : name == rule.span)
            return rule.layer;
    return nullptr;
}

struct Node {
    const TraceEvent* event = nullptr;
    std::uint64_t begin = 0;
    std::uint64_t end = 0;
    int parent = -1;
    std::vector<int> children;  ///< ascending begin (insertion order)
    double self_s = 0;
};

bool crosses(std::uint64_t b1, std::uint64_t e1, std::uint64_t b2,
             std::uint64_t e2) {
    const bool overlap = b1 < e2 && b2 < e1;
    const bool nested = (b1 <= b2 && e2 <= e1) || (b2 <= b1 && e1 <= e2);
    return overlap && !nested;
}

/// Deepest node whose interval holds `t`.
int innermost(const std::vector<Node>& nodes, std::uint64_t t) {
    int at = 0;
    for (;;) {
        const auto& children = nodes[std::size_t(at)].children;
        auto it = std::upper_bound(
            children.begin(), children.end(), t,
            [&](std::uint64_t v, int c) { return v < nodes[std::size_t(c)].begin; });
        if (it == children.begin()) return at;
        const Node& candidate = nodes[std::size_t(*(it - 1))];
        if (t >= candidate.end) return at;
        at = *(it - 1);
    }
}

bool has_ancestor(const std::vector<Node>& nodes, int at, std::string_view name) {
    for (int p = nodes[std::size_t(at)].parent; p > 0; p = nodes[std::size_t(p)].parent)
        if (nodes[std::size_t(p)].event->name == name) return true;
    return false;
}

}  // namespace

std::vector<TraceEvent> parse_trace(std::string_view json) {
    using dynaddr::obs::JsonValue;
    const auto doc = dynaddr::obs::json_parse(json);
    if (!doc) throw std::runtime_error("trace: not valid JSON");
    const JsonValue* list = doc->find("traceEvents");
    if (list == nullptr || list->type != JsonValue::Type::Array)
        throw std::runtime_error("trace: no traceEvents array");
    std::vector<TraceEvent> events;
    events.reserve(list->array.size());
    for (const JsonValue& value : list->array) {
        TraceEvent event;
        event.name = value.string_or("name", "");
        event.category = value.string_or("cat", "");
        event.ts_us = std::uint64_t(value.number_or("ts", 0));
        event.dur_us = std::uint64_t(value.number_or("dur", 0));
        event.tid = int(value.number_or("tid", 0));
        events.push_back(std::move(event));
    }
    return events;
}

const std::vector<std::string>& layer_metric_names() {
    static const std::vector<std::string> kNames = {
        "isp.build_s",      "sim.run_s",         "atlas.sink_s",
        "atlas.emit_s",     "isp.other_s",       "atlas.close_s",
        "atlas.read_s",     "atlas.decode_s",    "core.feed_s",
        "core.finalize_s",  "core.finish_s",     "core.batch_run_s",
        "core.periodicity_s", "core.prefix_changes_s", "core.outages_s",
        "core.audit_s",
    };
    return kNames;
}

LayerSplit split_layers(const std::vector<TraceEvent>& events,
                        const std::string& iteration_category,
                        const CallbackTime& callbacks) {
    const TraceEvent* root = nullptr;
    for (const auto& event : events)
        if (event.name == "bench.iteration" && event.category == iteration_category)
            root = &event;
    if (root == nullptr)
        throw std::runtime_error("trace: no bench.iteration span for " +
                                 iteration_category);
    const std::uint64_t root_end = root->ts_us + root->dur_us;

    std::vector<const TraceEvent*> bench;
    for (const auto& event : events)
        if (event.category == iteration_category && &event != root)
            bench.push_back(&event);

    std::vector<std::size_t> order;
    for (std::size_t i = 0; i < events.size(); ++i) {
        const TraceEvent& event = events[i];
        if (&event == root || event.tid != root->tid) continue;
        const std::uint64_t begin = event.ts_us;
        const std::uint64_t end = begin + event.dur_us;
        if (begin < root->ts_us || end > root_end) continue;
        if (event.category != iteration_category &&
            std::any_of(bench.begin(), bench.end(), [&](const TraceEvent* b) {
                return crosses(b->ts_us, b->ts_us + b->dur_us, begin, end);
            }))
            continue;
        order.push_back(i);
    }
    // Parents first: earlier start, then later end; among identical
    // intervals the later-recorded event is the outer one (spans record
    // when they close).
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        const TraceEvent& x = events[a];
        const TraceEvent& y = events[b];
        if (x.ts_us != y.ts_us) return x.ts_us < y.ts_us;
        if (x.dur_us != y.dur_us) return x.dur_us > y.dur_us;
        return a > b;
    });

    std::vector<Node> nodes;
    nodes.reserve(order.size() + 1);
    nodes.push_back(Node{root, root->ts_us, root_end, -1, {}, 0});
    std::vector<int> stack{0};
    for (const std::size_t i : order) {
        Node node{&events[i], events[i].ts_us, events[i].ts_us + events[i].dur_us,
                  -1, {}, 0};
        while (stack.size() > 1) {
            const Node& top = nodes[std::size_t(stack.back())];
            if (top.begin <= node.begin && node.end <= top.end) break;
            stack.pop_back();
        }
        node.parent = stack.back();
        const int id = int(nodes.size());
        nodes[std::size_t(node.parent)].children.push_back(id);
        nodes.push_back(std::move(node));
        stack.push_back(id);
    }
    for (auto& node : nodes) {
        std::uint64_t covered = 0;
        for (const int c : node.children)
            covered += nodes[std::size_t(c)].end - nodes[std::size_t(c)].begin;
        node.self_s = double(node.end - node.begin - covered) * 1e-6;
    }

    LayerSplit split;
    for (const auto& name : layer_metric_names()) split.self_s[name] = 0;

    for (std::size_t b = 0; b < callbacks.sink_ns.size(); ++b) {
        if (callbacks.sink_ns[b] == 0) continue;
        const std::uint64_t mid =
            callbacks.origin_us + b * callbacks.bucket_us + callbacks.bucket_us / 2;
        const double seconds = double(callbacks.sink_ns[b]) * 1e-9;
        nodes[std::size_t(innermost(nodes, mid))].self_s -= seconds;
        split.self_s["atlas.sink_s"] += seconds;
    }

    double finalize_in_stream = 0;
    for (std::size_t i = 1; i < nodes.size(); ++i) {
        const std::string& name = nodes[i].event->name;
        if (const char* layer = layer_of(name))
            split.self_s[layer] += nodes[i].self_s;
        else if (std::find(split.unmapped.begin(), split.unmapped.end(), name) ==
                 split.unmapped.end())
            split.unmapped.push_back(name);
        if (name == "pipeline.finalize" && has_ancestor(nodes, int(i), "bench.stream"))
            finalize_in_stream += double(nodes[i].end - nodes[i].begin) * 1e-6;
    }
    // Handler callbacks run inside the decode spans; what they spend outside
    // the finalize batches is pipeline feeding, not decoding.
    const double feed = double(callbacks.handler_ns) * 1e-9 - finalize_in_stream;
    split.self_s["atlas.decode_s"] -= feed;
    split.self_s["core.feed_s"] += feed;

    split.e2e_s = double(root->dur_us) * 1e-6;
    double layers = 0;
    for (const auto& [name, seconds] : split.self_s) layers += seconds;
    split.residual_s = split.e2e_s - layers;
    return split;
}

}  // namespace perfbench
