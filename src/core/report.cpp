#include "core/report.hpp"

#include <array>
#include <cstdio>
#include <map>
#include <set>
#include <tuple>

#include "core/change_attribution.hpp"
#include "core/daily_churn.hpp"
#include "netcore/ascii_chart.hpp"
#include "netcore/obs/log.hpp"

DYNADDR_LOG_MODULE(report);

namespace dynaddr::core {

std::string fmt(double value, int decimals) {
    char buffer[48];
    std::snprintf(buffer, sizeof buffer, "%.*f", decimals, value);
    return buffer;
}

std::string render_table2(const FilterReport& report) {
    std::vector<std::vector<std::string>> rows;
    auto add = [&](ProbeCategory category) {
        rows.push_back({category_name(category),
                        std::to_string(report.count(category))});
    };
    rows.push_back({"Total probes", std::to_string(report.total())});
    add(ProbeCategory::NeverChanged);
    add(ProbeCategory::DualStack);
    add(ProbeCategory::Ipv6Only);
    add(ProbeCategory::TaggedMultihomed);
    add(ProbeCategory::AlternatingMultihomed);
    add(ProbeCategory::TestingAddressOnly);
    add(ProbeCategory::Analyzable);
    return chart::render_table({"Category", "Probes"}, rows);
}

namespace {

std::vector<std::string> table5_fields(const Table5Row& row) {
    return {row.as_name,
            row.asn == 0 ? "-" : std::to_string(row.asn),
            row.country.empty() ? "-" : row.country,
            fmt(row.d_hours, 0),
            std::to_string(row.probes_with_change),
            std::to_string(row.periodic_probes),
            fmt(row.pct_over_half, 0) + "%",
            fmt(row.pct_over_three_quarters, 0) + "%",
            fmt(row.pct_max_le_d, 0) + "%",
            fmt(row.pct_harmonic, 0) + "%"};
}

}  // namespace

std::string render_table5(const PeriodicityAnalysis& analysis) {
    std::vector<std::vector<std::string>> rows;
    for (const auto& row : analysis.all_rows) rows.push_back(table5_fields(row));
    for (const auto& row : analysis.as_rows) rows.push_back(table5_fields(row));
    return chart::render_table({"AS", "ASN", "Country", "d(h)", "N", "f>0.25",
                                "f>0.5", "f>0.75", "MAX<=d", "Harmonic"},
                               rows);
}

std::string render_table6(const CondProbAnalysis& analysis) {
    std::vector<std::vector<std::string>> rows;
    auto fields = [](const Table6Row& row) {
        return std::vector<std::string>{
            row.as_name,
            row.asn == 0 ? "-" : std::to_string(row.asn),
            row.country.empty() ? "-" : row.country,
            std::to_string(row.n),
            fmt(row.pct_nw_over, 1) + "%",
            fmt(row.pct_nw_one, 1) + "%",
            fmt(row.pct_pw_over, 1) + "%",
            fmt(row.pct_pw_one, 1) + "%"};
    };
    rows.push_back(fields(analysis.all));
    for (const auto& row : analysis.as_rows) rows.push_back(fields(row));
    return chart::render_table({"AS", "ASN", "Country", "N", "P(ac|nw)>0.8",
                                "P(ac|nw)=1", "P(ac|pw)>0.8", "P(ac|pw)=1"},
                               rows);
}

std::string render_table7(const PrefixChangeAnalysis& analysis) {
    std::vector<std::vector<std::string>> rows;
    auto fields = [](const Table7Row& row) {
        return std::vector<std::string>{
            row.as_name,
            row.asn == 0 ? "-" : std::to_string(row.asn),
            row.country.empty() ? "-" : row.country,
            std::to_string(row.total_changes),
            std::to_string(row.diff_bgp) + " (" + fmt(row.pct_bgp(), 0) + "%)",
            std::to_string(row.diff_16) + " (" + fmt(row.pct_16(), 0) + "%)",
            std::to_string(row.diff_8) + " (" + fmt(row.pct_8(), 0) + "%)"};
    };
    rows.push_back(fields(analysis.all));
    for (const auto& row : analysis.as_rows) rows.push_back(fields(row));
    return chart::render_table(
        {"AS", "ASN", "Country", "Changes", "Diff BGP", "Diff /16", "Diff /8"},
        rows);
}

std::string render_firmware_series(const FirmwareAnalysis& analysis,
                                   net::TimeInterval window) {
    std::string out = "Unique probes rebooting per day (median " +
                      fmt(analysis.median_per_day, 1) + "):\n";
    // Weekly aggregation keeps the series printable; spikes still pop.
    std::vector<std::pair<std::string, double>> bars;
    int week_total = 0, week_start = 0;
    for (const auto& [day, count] : analysis.probes_rebooted_per_day) {
        if (day / 7 != week_start) {
            bars.emplace_back(
                (window.begin + net::Duration::days(week_start * 7)).to_string()
                    .substr(0, 10),
                week_total);
            week_total = 0;
            week_start = day / 7;
        }
        week_total += count;
    }
    if (week_total > 0)
        bars.emplace_back(
            (window.begin + net::Duration::days(week_start * 7)).to_string()
                .substr(0, 10),
            week_total);
    out += chart::render_bar_chart(bars, 50);
    out += "Inferred firmware release days:\n";
    for (const auto& day : analysis.release_days)
        out += "  " + day.to_string().substr(0, 10) + "\n";
    return out;
}

std::string render_summary(const AnalysisResults& results) {
    std::size_t changes = 0, spans = 0, nw = 0, pw = 0;
    for (const auto& probe : results.changes) {
        changes += probe.changes.size();
        spans += probe.spans.size();
    }
    for (const auto& [probe, list] : results.network_outages) nw += list.size();
    for (const auto& [probe, list] : results.power_outages) pw += list.size();
    std::string out;
    out += "window: " + results.window.begin.to_string() + " .. " +
           results.window.end.to_string() + "\n";
    out += "probes: " + std::to_string(results.filter.total()) + " total, " +
           std::to_string(results.filter.count(ProbeCategory::Analyzable)) +
           " analyzable (" + std::to_string(results.mapping.single_as.size()) +
           " single-AS, " + std::to_string(results.mapping.multi_as.size()) +
           " multi-AS)\n";
    out += "address changes: " + std::to_string(changes) + ", interior spans: " +
           std::to_string(spans) + "\n";
    out += "detected outages: " + std::to_string(nw) + " network, " +
           std::to_string(pw) + " power\n";
    DYNADDR_LOG(Debug, report, "rendered summary: ", changes, " changes, ",
                nw + pw, " outages, ", out.size(), " bytes");
    return out;
}

// -- report sections ----------------------------------------------------------

namespace {

/// The five ASes with the most probes in the paper (Figures 2, 7-8).
constexpr std::pair<std::uint32_t, const char*> kTopAses[] = {
    {3215, "Orange"}, {3320, "DTAG"}, {2856, "BT"}, {6830, "LGI"}, {701, "Verizon"}};

/// TTF CDF of one analysis grouping as a chart series, x in hours.
chart::Series ttf_series(const std::string& label, const TotalTimeFraction& ttf) {
    chart::Series series;
    series.label = label + " (" + fmt(ttf.total_hours() / 8760.0, 1) + "y)";
    series.points = ttf.cdf().points();
    return series;
}

/// Standard log-x chart options for duration CDFs (Figures 1-3).
chart::ChartOptions duration_chart_options() {
    chart::ChartOptions options;
    options.log_x = true;
    options.width = 68;
    options.height = 18;
    options.x_label = "IP address-duration, hours (log scale)";
    options.y_label = "Fraction of total address-duration (CDF)";
    return options;
}

/// TTF aggregated over the single-AS probes of one ASN.
TotalTimeFraction ttf_for_as(const AnalysisResults& results, std::uint32_t asn) {
    TotalTimeFraction ttf;
    for (const auto& changes : results.changes)
        if (results.mapping.as_of(changes.probe) == asn) ttf.add_all(changes.spans);
    return ttf;
}

std::string section_summary(const AnalysisResults& results,
                            const bgp::PrefixTable&, const bgp::AsRegistry&) {
    return render_summary(results) + "\n";
}

std::string section_table2(const AnalysisResults& results,
                           const bgp::PrefixTable&, const bgp::AsRegistry&) {
    return "Probe filtering (Table 2):\n" + render_table2(results.filter) + "\n";
}

std::string section_table5(const AnalysisResults& results,
                           const bgp::PrefixTable&, const bgp::AsRegistry&) {
    return "Periodic renumbering (Table 5):\n" +
           render_table5(results.periodicity) + "\n";
}

std::string section_table6(const AnalysisResults& results,
                           const bgp::PrefixTable&, const bgp::AsRegistry&) {
    return "Outage renumbering (Table 6):\n" + render_table6(results.cond_prob) +
           "\n";
}

std::string section_table7(const AnalysisResults& results,
                           const bgp::PrefixTable&, const bgp::AsRegistry&) {
    return "Prefix changes (Table 7):\n" + render_table7(results.prefix_changes) +
           "\n";
}

/// Figure 1: Europe's 24 h and 1-week modes, South America's 12/28/48/192 h
/// modes, and mode-free North America and Oceania.
std::string section_fig1(const AnalysisResults& results, const bgp::PrefixTable&,
                         const bgp::AsRegistry&) {
    std::vector<chart::Series> series;
    std::vector<std::vector<std::string>> rows;
    for (const auto& [continent, ttf] : results.geography.by_continent) {
        const std::string code = bgp::continent_code(continent);
        series.push_back(ttf_series(code, ttf));
        rows.push_back({code, fmt(ttf.fraction_at(12.0), 3),
                        fmt(ttf.fraction_at(24.0), 3), fmt(ttf.fraction_at(48.0), 3),
                        fmt(ttf.fraction_at(168.0), 3),
                        fmt(1.0 - ttf.fraction_at_or_below(24.0 * 50), 3),
                        fmt(ttf.total_hours() / 8760.0, 1)});
    }
    return "Total time fraction by continent (Figure 1):\n" +
           chart::render_cdf_chart(series, duration_chart_options()) +
           "\nMode masses (total time fraction at key durations):\n" +
           chart::render_table(
               {"Continent", "f(12h)", "f(24h)", "f(48h)", "f(1w)", ">50d", "years"},
               rows) +
           "\n";
}

/// Figure 2: Orange's 1-week mode, DTAG's 24 h mode, BT's 2-week mode, and
/// the mode-free LGI and Verizon.
std::string section_fig2(const AnalysisResults& results, const bgp::PrefixTable&,
                         const bgp::AsRegistry&) {
    std::vector<chart::Series> series;
    std::vector<std::vector<std::string>> rows;
    for (const auto& [asn, name] : kTopAses) {
        const auto ttf = ttf_for_as(results, asn);
        series.push_back(ttf_series(name, ttf));
        rows.push_back({name, fmt(ttf.fraction_at(24.0), 2),
                        fmt(ttf.fraction_at(168.0), 2),
                        fmt(ttf.fraction_at(337.0) + ttf.fraction_at(336.0), 2),
                        fmt(ttf.total_hours() / 8760.0, 1)});
    }
    return "Total time fraction for the top-5 probe ASes (Figure 2):\n" +
           chart::render_cdf_chart(series, duration_chart_options()) + "\n" +
           chart::render_table({"AS", "f(24h)", "f(1w)", "f(2w)", "years"}, rows) +
           "\n";
}

/// Figure 3: German ASes, located by the registry country of their AS.
/// Named ASes get their own curve; the remaining German ASes pool into
/// "others", as in the paper.
std::string section_fig3(const AnalysisResults& results, const bgp::PrefixTable&,
                         const bgp::AsRegistry& registry) {
    const std::set<std::uint32_t> named = {3320, 3209, 6805, 13184, 31334, 29562};
    std::map<std::uint32_t, TotalTimeFraction> by_as;
    TotalTimeFraction others;
    for (const auto& changes : results.changes) {
        const auto asn = results.mapping.as_of(changes.probe);
        if (!asn) continue;
        const auto info = registry.find(*asn);
        if (!info || info->country_code != "DE") continue;
        (named.contains(*asn) ? by_as[*asn] : others).add_all(changes.spans);
    }

    std::vector<chart::Series> series;
    std::vector<std::vector<std::string>> rows;
    auto add = [&](const std::string& label, const TotalTimeFraction& ttf) {
        if (ttf.span_count() == 0) return;
        series.push_back(ttf_series(label, ttf));
        rows.push_back({label, fmt(ttf.fraction_at(24.0), 2),
                        fmt(1.0 - ttf.fraction_at_or_below(336.0), 2)});
    };
    for (const auto& [asn, ttf] : by_as) add(registry.find(asn)->name, ttf);
    add("others", others);
    return "Total time fraction for German ASes (Figure 3):\n" +
           chart::render_cdf_chart(series, duration_chart_options()) + "\n" +
           chart::render_table({"AS", "f(24h)", ">2w"}, rows) + "\n";
}

/// Figures 4-5 helper: end hour (GMT) of every tenure of exactly d_hours
/// among one AS's single-AS probes.
std::array<int, 24> sync_histogram_for_as(const AnalysisResults& results,
                                          std::uint32_t asn, double d_hours) {
    std::array<int, 24> histogram{};
    for (const auto& changes : results.changes) {
        if (results.mapping.as_of(changes.probe) != asn) continue;
        const auto probe = sync_histogram({&changes, 1}, d_hours);
        for (std::size_t h = 0; h < 24; ++h) histogram[h] += probe[h];
    }
    return histogram;
}

std::string hour_histogram(const std::string& title,
                           const std::array<int, 24>& histogram) {
    std::vector<std::pair<std::string, double>> bars;
    for (int h = 0; h < 24; ++h)
        bars.emplace_back((h < 10 ? "0" : "") + std::to_string(h) + ":00",
                          histogram[std::size_t(h)]);
    return title + "\n" + chart::render_bar_chart(bars, 48) + "\n";
}

double night_share(const std::array<int, 24>& histogram) {
    int night = 0, total = 0;
    for (int h = 0; h < 24; ++h) {
        total += histogram[std::size_t(h)];
        if (h <= 6) night += histogram[std::size_t(h)];
    }
    return total == 0 ? 0.0 : double(night) / total;
}

/// Figures 4-5: Orange's weekly changes run on free-running session clocks
/// and spread over the day; DTAG's daily changes cluster at night.
std::string section_fig4_5(const AnalysisResults& results, const bgp::PrefixTable&,
                           const bgp::AsRegistry&) {
    const auto orange = sync_histogram_for_as(results, 3215, 168.0);
    const auto dtag = sync_histogram_for_as(results, 3320, 24.0);
    return "Hour of day of periodic address changes (Figures 4-5):\n" +
           hour_histogram("Figure 4 — Orange, weekly changes per end hour (GMT):",
                          orange) +
           hour_histogram("Figure 5 — DTAG, daily changes per end hour (GMT):",
                          dtag) +
           "Share of changes ending in hours 0-6: Orange " +
           fmt(100.0 * night_share(orange), 1) + "%, DTAG " +
           fmt(100.0 * night_share(dtag), 1) + "%\n\n";
}

std::string section_fig6(const AnalysisResults& results, const bgp::PrefixTable&,
                         const bgp::AsRegistry&) {
    return "Reboots per day and firmware spikes (Figure 6):\n" +
           render_firmware_series(results.firmware, results.window) + "\n";
}

/// Figures 7-8: per-probe CDFs of P(address change | outage) for the five
/// big ASes; network outages over all probes, power outages over v3 only.
std::string section_fig7_8(const AnalysisResults& results, const bgp::PrefixTable&,
                           const bgp::AsRegistry&) {
    std::string out = "P(ac|outage) per probe, by AS (Figures 7-8):\n";
    for (const auto kind :
         {DetectedOutage::Kind::Network, DetectedOutage::Kind::Power}) {
        out += kind == DetectedOutage::Kind::Network
                   ? "Figure 7 — P(ac|network outage):\n"
                   : "Figure 8 — P(ac|power outage), v3 only:\n";
        std::vector<chart::Series> series;
        std::vector<std::vector<std::string>> rows;
        for (const auto& [asn, name] : kTopAses) {
            const auto cdf =
                cond_prob_cdf(results.cond_prob.probes, results.mapping, asn, kind);
            if (cdf.sample_count() == 0) continue;
            chart::Series s;
            s.label = std::string(name) + " (" +
                      std::to_string(cdf.sample_count()) + ")";
            s.points = cdf.points();
            // Anchor the step function at x=0 so the chart starts there.
            if (s.points.empty() || s.points.front().x > 0.0)
                s.points.insert(s.points.begin(),
                                {0.0, cdf.fraction_at_or_below(0.0)});
            series.push_back(s);
            rows.push_back({name, std::to_string(cdf.sample_count()),
                            fmt(cdf.fraction_at_or_below(0.2), 2),
                            fmt(cdf.fraction_at_or_below(0.8), 2),
                            fmt(1.0 - cdf.fraction_at_or_below(0.999999), 2)});
        }
        chart::ChartOptions options;
        options.width = 68;
        options.height = 16;
        options.x_label = "Probability of address change given outage";
        options.y_label = "Fraction of probes (CDF)";
        out += chart::render_cdf_chart(series, options);
        out += chart::render_table({"AS", "N", "<=0.2", "<=0.8", "P=1"}, rows) + "\n";
    }
    return out;
}

std::string duration_bins(const std::string& title, const DurationBinAnalysis& bins) {
    std::vector<std::vector<std::string>> rows;
    std::vector<std::tuple<std::string, double, double>> fractions;
    for (std::size_t b = 0; b < bins.total.bin_count(); ++b) {
        rows.push_back({bins.total.bin_label(b), fmt(bins.total.bin_weight(b), 0),
                        fmt(bins.renumbered.bin_weight(b), 0),
                        fmt(bins.percent_renumbered(b), 1) + "%"});
        if (bins.total.bin_weight(b) > 0)
            fractions.emplace_back(bins.total.bin_label(b),
                                   bins.renumbered.bin_weight(b),
                                   bins.total.bin_weight(b));
    }
    return title + "\n" +
           chart::render_table({"Outage duration", "Outages", "Renumbered", "%"},
                               rows) +
           chart::render_fraction_chart(fractions, 40) + "\n";
}

/// Figure 9: LGI's DHCP lease ramp against Orange's renumber-on-every-
/// reconnect PPP.
std::string section_fig9(const AnalysisResults& results, const bgp::PrefixTable&,
                         const bgp::AsRegistry&) {
    return "Renumbering likelihood vs outage duration (Figure 9):\n" +
           duration_bins("LGI (AS6830) — network + power outages:",
                         duration_bins_for_as(results, 6830)) +
           duration_bins("Orange (AS3215) — network + power outages:",
                         duration_bins_for_as(results, 3215));
}

std::string section_causes(const AnalysisResults& results,
                           const bgp::PrefixTable& table,
                           const bgp::AsRegistry& registry) {
    const auto attribution = attribute_changes(results, table, registry);
    record_change_attribution(attribution);
    return "Change-cause attribution:\n" +
           render_change_attribution(attribution) + "\n";
}

std::string section_admin(const AnalysisResults& results, const bgp::PrefixTable&,
                          const bgp::AsRegistry&) {
    std::string out = "Administrative renumbering events: " +
                      std::to_string(results.admin_events.size()) + "\n";
    for (const auto& event : results.admin_events)
        out += "  AS" + std::to_string(event.asn) + " retired " +
               event.retired_prefix.to_string() + " around " +
               event.last_departure.to_string().substr(0, 10) + " (" +
               std::to_string(event.probes_moved) + " probes -> " +
               event.destination_prefix.to_string() + ")\n";
    return out + "\n";
}

/// §8: RFC 4941 temporary-address rotation over the dual-stack and
/// IPv6-only probes the IPv4 filtering discards.
std::string section_ipv6(const AnalysisResults& results, const bgp::PrefixTable&,
                         const bgp::AsRegistry&) {
    const auto& analysis = results.ipv6_privacy;
    const double rotating_pct =
        analysis.probes.empty()
            ? 0.0
            : 100.0 * analysis.rotating_probes / double(analysis.probes.size());
    std::string out =
        "IPv6 temporary-address rotation:\n"
        "Probes with IPv6 connections: " + std::to_string(analysis.probes.size()) +
        " (the dual-stack + IPv6-only populations the IPv4 pipeline filters out)\n"
        "Distinct IPv6 addresses:      " + std::to_string(analysis.total_addresses) +
        "\nEphemeral (lifetime <= 36 h): " +
        std::to_string(analysis.ephemeral_addresses) + " (" +
        fmt(100.0 * analysis.ephemeral_fraction(), 1) +
        "%)\nRotating probes (>=3 IIDs in one /64): " +
        std::to_string(analysis.rotating_probes) + " of " +
        std::to_string(analysis.probes.size()) + " (" + fmt(rotating_pct, 1) +
        "% — the privacy-extensions share)\n\n";
    if (analysis.rotation_cdf.sample_count() > 0) {
        const auto& cdf = analysis.rotation_cdf;
        out += "Rotation-period estimates (per probe, hours):\n  median " +
               fmt(cdf.quantile(0.5), 1) + " h, p10 " + fmt(cdf.quantile(0.1), 1) +
               " h, p90 " + fmt(cdf.quantile(0.9), 1) + " h\n";
        chart::ChartOptions options;
        options.width = 60;
        options.height = 12;
        options.x_label = "hours between successive temporary addresses";
        options.y_label = "Fraction of rotating probes (CDF)";
        out += chart::render_cdf_chart({{"rotation period", cdf.points()}}, options) +
               "\n";
    }
    return out;
}

/// The whole UTC days inside `window`, or `window` itself when it holds
/// none. A window derived from the data ends one second past the last
/// record, which would otherwise add a one-second day to a daily metric.
net::TimeInterval whole_days(net::TimeInterval window) {
    constexpr std::int64_t kDay = 86400;
    const std::int64_t begin = window.begin.unix_seconds();
    const std::int64_t end = window.end.unix_seconds();
    const std::int64_t first = (begin + kDay - 1) / kDay * kDay;
    const std::int64_t last = end / kDay * kDay;
    if (last <= first) return window;
    return {net::TimePoint{first}, net::TimePoint{last}};
}

/// §8: Richter et al.'s day-over-day active-address delta; All plus the 15
/// biggest ASes.
std::string section_churn(const AnalysisResults& results, const bgp::PrefixTable&,
                          const bgp::AsRegistry& registry) {
    auto churn = analyze_daily_churn(results.filter.analyzable, results.mapping,
                                     registry, whole_days(results.window));
    if (churn.by_as.size() > 15) churn.by_as.resize(15);
    return "Daily active-address churn:\n" + render_daily_churn(churn) + "\n";
}

constexpr ReportSection kSections[] = {
    {"summary", section_summary}, {"table2", section_table2},
    {"table5", section_table5},   {"table6", section_table6},
    {"table7", section_table7},   {"fig1", section_fig1},
    {"fig2", section_fig2},       {"fig3", section_fig3},
    {"fig4_5", section_fig4_5},   {"fig6", section_fig6},
    {"fig7_8", section_fig7_8},   {"fig9", section_fig9},
    {"causes", section_causes},   {"admin", section_admin},
    {"ipv6", section_ipv6},       {"churn", section_churn},
};

}  // namespace

std::span<const ReportSection> report_sections() { return kSections; }

const ReportSection* find_report_section(std::string_view name) {
    for (const auto& section : kSections)
        if (section.name == name) return &section;
    return nullptr;
}

}  // namespace dynaddr::core
