#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace dynaddr::csv {

/// Splits one CSV line on commas. Fields containing commas or quotes must
/// be double-quoted; embedded quotes are escaped by doubling ("" -> ").
/// Throws ParseError on an unterminated quoted field.
std::vector<std::string> split_line(std::string_view line);

/// Quotes a field if needed and appends it to `out`.
void append_field(std::string& out, std::string_view field);

/// Joins fields into one CSV line (no trailing newline).
std::string join_line(const std::vector<std::string>& fields);

/// Streaming CSV writer with a fixed header. Column counts are enforced:
/// writing a row of the wrong width throws Error.
class Writer {
public:
    /// Writes the header immediately. The stream must outlive the Writer.
    Writer(std::ostream& out, std::vector<std::string> header);

    void write_row(const std::vector<std::string>& fields);

    [[nodiscard]] std::size_t rows_written() const { return rows_; }

private:
    std::ostream* out_;
    std::size_t columns_;
    std::size_t rows_ = 0;
};

/// The CSV reader: a zero-copy scanner built for the hot read paths (the
/// dataset loaders parse millions of rows). Rows and delimiters are
/// located with the SSE2/SWAR scanner in netcore/simd_scan.hpp and yielded
/// as string_views into one contiguous buffer — no per-row or per-field
/// allocation for plain fields. A row containing a quote falls back to
/// full split_line semantics transparently. Blank lines are skipped and a
/// trailing CR is stripped from every line.
class ScanReader {
public:
    /// Reads the entire stream and parses the header line. Throws
    /// ParseError when the stream is empty.
    explicit ScanReader(std::istream& in);

    /// Scans an external buffer (an mmapped file via net::ByteSource)
    /// without copying it. The buffer must outlive the reader and every
    /// row view it hands out.
    explicit ScanReader(std::string_view buffer);

    /// The header fields.
    [[nodiscard]] const std::vector<std::string>& header() const { return header_; }

    /// Index of the named column; throws Error when absent.
    [[nodiscard]] std::size_t column(std::string_view name) const;

    /// Restricts next_row() to the named columns: other slots of the row
    /// vector come back empty and their bytes are never touched beyond
    /// delimiter scanning. Width enforcement still sees every column. The
    /// paper analyses read 3-4 columns of arbitrarily wide exports, so
    /// skipping the rest is a large fraction of the scan cost.
    void project(const std::vector<std::string_view>& names);

    /// Next row, or nullptr at end of input. The views stay valid only
    /// until the following next_row() call. Rows whose width differs from
    /// the header raise ParseError; blank lines are skipped.
    const std::vector<std::string_view>* next_row();

private:
    void parse_header();

    std::string buffer_;      ///< owns stream contents; empty in zero-copy mode
    std::string_view data_;   ///< what next_row() actually scans
    std::size_t pos_ = 0;
    std::vector<std::string> header_;
    std::vector<std::string_view> fields_;
    std::vector<bool> wanted_;           ///< empty = keep every column
    std::vector<std::string> fallback_;  ///< owns unquoted text of quoted rows
};

}  // namespace dynaddr::csv
