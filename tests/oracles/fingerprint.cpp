#include "oracles/fingerprint.hpp"

#include <sstream>

namespace dynaddr::core {

namespace {

void dump_outage_map(
    std::ostream& out, const char* tag,
    const std::map<atlas::ProbeId, std::vector<DetectedOutage>>& outages) {
    for (const auto& [probe, list] : outages) {
        out << tag << ' ' << probe;
        for (const auto& o : list)
            out << " [" << int(o.kind) << ' ' << o.begin.unix_seconds() << ' '
                << o.end.unix_seconds() << ']';
        out << '\n';
    }
}

void dump_outcome_map(
    std::ostream& out, const char* tag,
    const std::map<atlas::ProbeId, std::vector<OutageOutcome>>& outcomes) {
    for (const auto& [probe, list] : outcomes) {
        out << tag << ' ' << probe;
        for (const auto& o : list)
            out << " [" << o.outage.begin.unix_seconds() << ' '
                << o.outage.end.unix_seconds() << ' ' << o.address_change
                << ']';
        out << '\n';
    }
}

}  // namespace

std::string fingerprint(const AnalysisResults& r) {
    std::ostringstream out;
    out << "window " << r.window.begin.unix_seconds() << ' '
        << r.window.end.unix_seconds() << '\n';
    for (const auto& [probe, category] : r.filter.category)
        out << "cat " << probe << ' ' << category_name(category) << '\n';
    out << "analyzable-logs " << r.filter.analyzable.size() << '\n';
    for (const auto& [probe, version] : r.probe_versions)
        out << "ver " << probe << ' ' << int(version) << '\n';
    for (const auto& pc : r.changes) {
        out << "probe " << pc.probe << " total "
            << pc.total_address_time.count() << '\n';
        for (const auto& c : pc.changes)
            out << "  change " << c.last_seen.unix_seconds() << ' '
                << c.first_seen.unix_seconds() << ' ' << c.from.to_string()
                << ' ' << c.to.to_string() << '\n';
        for (const auto& s : pc.spans)
            out << "  span " << s.address.to_string() << ' '
                << s.begin.unix_seconds() << ' ' << s.end.unix_seconds()
                << '\n';
    }
    out << "ipv6 " << r.ipv6_privacy.total_addresses << ' '
        << r.ipv6_privacy.ephemeral_addresses << ' '
        << r.ipv6_privacy.rotating_probes << '\n';
    out << "firmware median " << r.firmware.median_per_day << '\n';
    for (const auto& [day, count] : r.firmware.probes_rebooted_per_day)
        out << "reboots " << day << ' ' << count << '\n';
    for (const auto& release : r.firmware.release_days)
        out << "release " << release.unix_seconds() << '\n';
    dump_outage_map(out, "nw", r.network_outages);
    dump_outage_map(out, "pw", r.power_outages);
    dump_outcome_map(out, "nw-out", r.network_outcomes);
    dump_outcome_map(out, "pw-out", r.power_outcomes);
    for (const auto& p : r.cond_prob.probes)
        out << "cp " << p.probe << ' ' << p.network_outages << ' '
            << p.network_changes << ' ' << p.power_outages << ' '
            << p.power_changes << '\n';
    auto dump_row = [&](const Table6Row& row) {
        out << "t6 " << row.asn << ' ' << row.as_name << ' ' << row.n << ' '
            << row.pct_nw_over << ' ' << row.pct_nw_one << ' '
            << row.pct_pw_over << ' ' << row.pct_pw_one << '\n';
    };
    dump_row(r.cond_prob.all);
    for (const auto& row : r.cond_prob.as_rows) dump_row(row);
    auto dump_t5 = [&](const Table5Row& row) {
        out << "t5 " << row.asn << ' ' << row.as_name << ' ' << row.d_hours
            << ' ' << row.probes_with_change << ' ' << row.periodic_probes
            << ' ' << row.pct_over_half << ' ' << row.pct_harmonic << '\n';
    };
    for (const auto& row : r.periodicity.all_rows) dump_t5(row);
    for (const auto& row : r.periodicity.as_rows) dump_t5(row);
    auto dump_t7 = [&](const Table7Row& row) {
        out << "t7 " << row.asn << ' ' << row.as_name << ' '
            << row.total_changes << ' ' << row.diff_bgp << ' ' << row.diff_16
            << ' ' << row.diff_8 << '\n';
    };
    dump_t7(r.prefix_changes.all);
    for (const auto& row : r.prefix_changes.as_rows) dump_t7(row);
    out << "admin " << r.admin_events.size() << '\n';
    return out.str();
}

}  // namespace dynaddr::core
