#pragma once

#include <span>
#include <string>
#include <string_view>

#include "bgp/as_registry.hpp"
#include "bgp/prefix_table.hpp"
#include "core/pipeline.hpp"

namespace dynaddr::core {

/// Text renderings of the paper's tables from pipeline results. Each
/// returns a ready-to-print block (monospace), formatted like the paper.
std::string render_table2(const FilterReport& report);
std::string render_table5(const PeriodicityAnalysis& analysis);
std::string render_table6(const CondProbAnalysis& analysis);
std::string render_table7(const PrefixChangeAnalysis& analysis);

/// Figure 6 rendering: reboot counts per day with inferred release days.
std::string render_firmware_series(const FirmwareAnalysis& analysis,
                                   net::TimeInterval window);

/// One-paragraph run summary (probe counts, changes, spans, outages).
std::string render_summary(const AnalysisResults& results);

/// Formats a double with the given decimals (shared by benches).
std::string fmt(double value, int decimals = 1);

/// One named artifact of `dynaddr analyze --report`: a table, figure or
/// §8 extension rendered from the pipeline results plus the IP-to-AS
/// context. The text is printed as is; it ends with a blank line.
struct ReportSection {
    std::string_view name;
    std::string (*render)(const AnalysisResults& results,
                          const bgp::PrefixTable& table,
                          const bgp::AsRegistry& registry);
};

/// Every section, in print order (the order `--report all` uses).
std::span<const ReportSection> report_sections();

/// The section called `name`, nullptr when there is none.
const ReportSection* find_report_section(std::string_view name);

}  // namespace dynaddr::core
