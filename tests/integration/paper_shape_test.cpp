// Regression locks for the headline shapes EXPERIMENTS.md reports:
// `dynaddr analyze --report` only prints them; these assertions keep them
// true, and the drift checks keep EXPERIMENTS.md's measured numbers equal
// to what the report sections print. Two shared year-long runs (~1 s
// each). DYNADDR_EXPERIMENTS_MD is injected by CMake.

#include <gtest/gtest.h>

#include <cctype>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "core/report.hpp"
#include "isp/presets.hpp"

namespace dynaddr {
namespace {

/// One EXPERIMENTS.md heading that names the report sections its numbers
/// come from, as "## Title (paper preset, `--report table2,summary`)".
struct DocBlock {
    std::string heading;
    std::string preset;
    std::vector<std::string> sections;
    /// Numbers quoted in a Measured column or in bold, commas removed.
    std::vector<std::string> numbers;
};

std::vector<std::string> split(const std::string& text, char separator) {
    std::vector<std::string> parts;
    std::string part;
    std::istringstream in(text);
    while (std::getline(in, part, separator)) parts.push_back(part);
    return parts;
}

/// Appends the numbers in `text`; a date (2015-07-06) is one number.
void add_numbers(const std::string& text, std::vector<std::string>& numbers) {
    static const std::regex number(R"(\d{4}-\d\d-\d\d|\d[\d,]*(\.\d+)?%?)");
    for (std::sregex_iterator it(text.begin(), text.end(), number), end;
         it != end; ++it) {
        std::string value = it->str();
        std::erase(value, ',');
        numbers.push_back(value);
    }
}

/// Parses EXPERIMENTS.md into the blocks whose heading names a preset and
/// its report sections; other headings end a block and are skipped.
std::vector<DocBlock> experiments_doc_blocks() {
    std::ifstream in(DYNADDR_EXPERIMENTS_MD);
    EXPECT_TRUE(in.good()) << DYNADDR_EXPERIMENTS_MD;
    static const std::regex source(R"(\((\w+) preset, `--report ([\w,]+)`\))");
    std::vector<DocBlock> blocks;
    std::vector<std::string> texts;  // per block, for bold that spans lines
    DocBlock* block = nullptr;
    std::vector<std::size_t> measured_columns;
    bool in_table = false;
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("## ", 0) == 0) {
            std::smatch match;
            block = nullptr;
            if (std::regex_search(line, match, source)) {
                blocks.push_back({line, match[1], split(match[2], ','), {}});
                texts.emplace_back();
                block = &blocks.back();
            }
            continue;
        }
        if (block == nullptr) continue;
        texts.back() += line + "\n";
        if (line.rfind("|", 0) != 0) {
            in_table = false;
            continue;
        }
        // "\|" inside a cell is a literal bar, not a column break.
        static const std::regex escaped_bar(R"(\\\|)");
        const auto cells = split(std::regex_replace(line, escaped_bar, "/"), '|');
        if (!in_table) {  // header row
            in_table = true;
            measured_columns.clear();
            for (std::size_t c = 0; c < cells.size(); ++c)
                if (cells[c].find("Measured") != std::string::npos)
                    measured_columns.push_back(c);
            continue;
        }
        if (line.rfind("|---", 0) == 0) continue;
        for (const auto c : measured_columns)
            if (c < cells.size()) add_numbers(cells[c], block->numbers);
    }
    static const std::regex bold(R"(\*\*([^*]+)\*\*)");
    for (std::size_t b = 0; b < blocks.size(); ++b)
        for (std::sregex_iterator it(texts[b].begin(), texts[b].end(), bold), end;
             it != end; ++it)
            add_numbers((*it)[1], blocks[b].numbers);
    return blocks;
}

/// `number` occurs in `text` as a whole number: not inside a longer one.
bool quotes(const std::string& text, const std::string& number) {
    auto digit = [&](std::size_t i) {
        return i < text.size() && std::isdigit(static_cast<unsigned char>(text[i]));
    };
    for (auto at = text.find(number); at != std::string::npos;
         at = text.find(number, at + 1)) {
        const std::size_t after = at + number.size();
        const bool starts = at == 0 || (!digit(at - 1) && text[at - 1] != '.');
        const bool ends = number.back() == '%' ||
                          (!digit(after) && !(text[after] == '.' && digit(after + 1)));
        if (starts && ends) return true;
    }
    return false;
}

/// Checks every EXPERIMENTS.md block of `preset` against the report
/// sections it names, rendered from `results`.
void expect_doc_matches_report(const std::string& preset,
                               const core::AnalysisResults& results,
                               const isp::ScenarioResult& scenario) {
    std::size_t checked = 0;
    for (const auto& block : experiments_doc_blocks()) {
        if (block.preset != preset) continue;
        std::string rendered;
        for (const auto& name : block.sections) {
            const auto* section = core::find_report_section(name);
            ASSERT_NE(section, nullptr) << block.heading << ": no section " << name;
            rendered += section->render(results, scenario.prefix_table,
                                        scenario.registry);
        }
        for (const auto& number : block.numbers) {
            EXPECT_TRUE(quotes(rendered, number))
                << block.heading << "\n  quotes " << number
                << ", which `--report` does not print";
            ++checked;
        }
    }
    EXPECT_GE(checked, 40u) << "too few EXPERIMENTS.md numbers checked for "
                            << preset;
}

class PaperWorldRun : public ::testing::Test {
protected:
    static void SetUpTestSuite() {
        config_ = new isp::ScenarioConfig(isp::presets::paper_scenario());
        scenario_ = new isp::ScenarioResult(isp::run_scenario(*config_));
        core::AnalysisPipeline pipeline;
        results_ = new core::AnalysisResults(
            pipeline.run(scenario_->bundle, scenario_->prefix_table,
                         scenario_->registry, config_->window));
    }
    static void TearDownTestSuite() {
        delete results_;
        delete scenario_;
        delete config_;
    }
    static isp::ScenarioConfig* config_;
    static isp::ScenarioResult* scenario_;
    static core::AnalysisResults* results_;
};

isp::ScenarioConfig* PaperWorldRun::config_ = nullptr;
isp::ScenarioResult* PaperWorldRun::scenario_ = nullptr;
core::AnalysisResults* PaperWorldRun::results_ = nullptr;

const core::Table5Row* find_row(const core::PeriodicityAnalysis& analysis,
                                std::uint32_t asn, double d) {
    for (const auto& row : analysis.as_rows)
        if (row.asn == asn && row.d_hours == d) return &row;
    return nullptr;
}

TEST_F(PaperWorldRun, Table5HeadlineRows) {
    const auto* orange = find_row(results_->periodicity, 3215, 168.0);
    ASSERT_NE(orange, nullptr) << "Orange weekly row missing";
    EXPECT_GE(orange->periodic_probes, 100);
    EXPECT_GE(orange->pct_max_le_d, 90.0);
    EXPECT_GE(orange->pct_harmonic, 90.0);

    const auto* dtag = find_row(results_->periodicity, 3320, 24.0);
    ASSERT_NE(dtag, nullptr) << "DTAG daily row missing";
    EXPECT_GE(dtag->periodic_probes, 45);
    EXPECT_GE(dtag->pct_harmonic, 85.0);

    const auto* bt = find_row(results_->periodicity, 2856, 337.0);
    ASSERT_NE(bt, nullptr) << "BT fortnightly row missing";
    EXPECT_LE(bt->periodic_probes, 20) << "BT periodicity is a minority";

    // Both Orange Polska periods, as in the paper.
    EXPECT_NE(find_row(results_->periodicity, 5617, 22.0), nullptr);
    EXPECT_NE(find_row(results_->periodicity, 5617, 24.0), nullptr);

    // Stable ISPs never produce rows.
    for (const auto& row : results_->periodicity.as_rows) {
        EXPECT_NE(row.asn, 6830u) << "LGI must not be periodic";
        EXPECT_NE(row.asn, 701u) << "Verizon must not be periodic";
        EXPECT_NE(row.asn, 7922u) << "Comcast must not be periodic";
    }
}

TEST_F(PaperWorldRun, Figure1ContinentShapes) {
    const auto& geo = results_->geography;
    ASSERT_TRUE(geo.by_continent.contains(bgp::Continent::Europe));
    ASSERT_TRUE(geo.by_continent.contains(bgp::Continent::NorthAmerica));
    const auto& eu = geo.by_continent.at(bgp::Continent::Europe);
    const auto& na = geo.by_continent.at(bgp::Continent::NorthAmerica);
    // Europe: daily and weekly modes.
    EXPECT_GT(eu.fraction_at(24.0), 0.10);
    EXPECT_GT(eu.fraction_at(168.0), 0.05);
    // North America: no daily mode, most time in >50-day tenures.
    EXPECT_LT(na.fraction_at(24.0), 0.05);
    EXPECT_GT(1.0 - na.fraction_at_or_below(50.0 * 24.0), 0.50);
}

TEST_F(PaperWorldRun, Table7PrefixShapes) {
    const core::Table7Row* orange = nullptr;
    const core::Table7Row* dtag = nullptr;
    for (const auto& row : results_->prefix_changes.as_rows) {
        if (row.asn == 3215) orange = &row;
        if (row.asn == 3320) dtag = &row;
    }
    ASSERT_NE(orange, nullptr);
    ASSERT_NE(dtag, nullptr);
    // Orange hops prefixes and /8s (paper: 68/67/53).
    EXPECT_GT(orange->pct_bgp(), 50.0);
    EXPECT_GT(orange->pct_8(), 40.0);
    // DTAG mostly stays local (paper: 24/28/24), and its /16 crossing
    // exceeds its BGP crossing (oversized aggregates).
    EXPECT_LT(dtag->pct_bgp(), 40.0);
    EXPECT_GT(dtag->pct_16(), dtag->pct_bgp());
    // Overall: a substantial share of changes leaves the routed prefix.
    EXPECT_GT(results_->prefix_changes.all.pct_bgp(), 25.0);
}

TEST_F(PaperWorldRun, ExperimentsMdMatchesReport) {
    expect_doc_matches_report("paper", *results_, *scenario_);
}

TEST_F(PaperWorldRun, Ipv6PrivacyShapes) {
    const auto& v6 = results_->ipv6_privacy;
    ASSERT_GT(v6.probes.size(), 300u);
    const double rotating_share =
        double(v6.rotating_probes) / double(v6.probes.size());
    EXPECT_NEAR(rotating_share, 0.90, 0.05) << "privacy-extensions share";
    ASSERT_GT(v6.rotation_cdf.sample_count(), 0u);
    EXPECT_NEAR(v6.rotation_cdf.quantile(0.5), 24.0, 1.0)
        << "RFC 4941 daily rotation";
}

class OutageWorldRun : public ::testing::Test {
protected:
    static void SetUpTestSuite() {
        config_ = new isp::ScenarioConfig(isp::presets::outage_scenario());
        scenario_ = new isp::ScenarioResult(isp::run_scenario(*config_));
        core::AnalysisPipeline pipeline;
        results_ = new core::AnalysisResults(
            pipeline.run(scenario_->bundle, scenario_->prefix_table,
                         scenario_->registry, config_->window));
    }
    static void TearDownTestSuite() {
        delete results_;
        delete scenario_;
        delete config_;
    }
    static isp::ScenarioConfig* config_;
    static isp::ScenarioResult* scenario_;
    static core::AnalysisResults* results_;

    static const core::Table6Row* row_for(std::uint32_t asn) {
        for (const auto& row : results_->cond_prob.as_rows)
            if (row.asn == asn) return &row;
        return nullptr;
    }
};

isp::ScenarioConfig* OutageWorldRun::config_ = nullptr;
isp::ScenarioResult* OutageWorldRun::scenario_ = nullptr;
core::AnalysisResults* OutageWorldRun::results_ = nullptr;

TEST_F(OutageWorldRun, Table6PppVersusDhcpSplit) {
    const auto* orange = row_for(3215);
    const auto* lgi = row_for(6830);
    ASSERT_NE(orange, nullptr);
    ASSERT_NE(lgi, nullptr);
    EXPECT_GE(orange->n, 50);
    EXPECT_GT(orange->pct_nw_over, 80.0) << "PPP renumbers on nearly every outage";
    EXPECT_LT(lgi->pct_nw_over, 10.0) << "sticky DHCP almost never does";
    // Power tracks network per AS.
    EXPECT_GT(orange->pct_pw_over, 80.0);
    EXPECT_LT(lgi->pct_pw_over, 10.0);
    // The All row sits between the regimes.
    EXPECT_GT(results_->cond_prob.all.pct_nw_over, 20.0);
    EXPECT_LT(results_->cond_prob.all.pct_nw_over, 80.0);
}

TEST_F(OutageWorldRun, Figure9DurationRamp) {
    const auto lgi = core::duration_bins_for_as(*results_, 6830);
    // Sub-hour bins: essentially no renumbering (bins 0-4 cover < 1 h).
    double short_total = 0.0, short_renumbered = 0.0;
    for (std::size_t b = 0; b <= 4; ++b) {
        short_total += lgi.total.bin_weight(b);
        short_renumbered += lgi.renumbered.bin_weight(b);
    }
    ASSERT_GT(short_total, 100.0);
    EXPECT_LT(short_renumbered / short_total, 0.03);
    // Day-plus bins: a solid majority renumbered (bins 9-11).
    double long_total = 0.0, long_renumbered = 0.0;
    for (std::size_t b = 9; b <= 11; ++b) {
        long_total += lgi.total.bin_weight(b);
        long_renumbered += lgi.renumbered.bin_weight(b);
    }
    ASSERT_GT(long_total, 10.0);
    EXPECT_GT(long_renumbered / long_total, 0.60);

    const auto orange = core::duration_bins_for_as(*results_, 3215);
    double orange_short_total = 0.0, orange_short_renumbered = 0.0;
    for (std::size_t b = 0; b <= 4; ++b) {
        orange_short_total += orange.total.bin_weight(b);
        orange_short_renumbered += orange.renumbered.bin_weight(b);
    }
    ASSERT_GT(orange_short_total, 100.0);
    EXPECT_GT(orange_short_renumbered / orange_short_total, 0.85)
        << "Orange renumbers even on the shortest outages";
}

TEST_F(OutageWorldRun, ExperimentsMdMatchesReport) {
    expect_doc_matches_report("outage", *results_, *scenario_);
}

TEST_F(OutageWorldRun, Figure6FirmwareRecovery) {
    int matched = 0;
    for (const auto& inferred : results_->firmware.release_days)
        for (const auto& truth : config_->firmware_releases)
            if (inferred >= truth - net::Duration::days(1) &&
                inferred <= truth + net::Duration::days(2))
                ++matched;
    EXPECT_EQ(matched, int(config_->firmware_releases.size()))
        << "every firmware release recovered";
    EXPECT_LE(results_->firmware.release_days.size(),
              config_->firmware_releases.size() + 1)
        << "no spurious spike periods";
}

}  // namespace
}  // namespace dynaddr
