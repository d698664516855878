#pragma once

// Byte-exact text rendering of an AnalysisResults: every analysis output
// (funnel, changes, IPv6, firmware, outage maps, Tables 5-7, admin
// events), one fact per line. Two runs agree iff their fingerprints are
// equal. Compare whole-run fingerprints with EXPECT_TRUE(a == b): on a
// mismatch EXPECT_EQ makes gtest line-diff two multi-megabyte strings,
// which can exhaust memory.

#include <string>

#include "core/pipeline.hpp"

namespace dynaddr::core {

[[nodiscard]] std::string fingerprint(const AnalysisResults& results);

}  // namespace dynaddr::core
