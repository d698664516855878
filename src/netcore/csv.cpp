#include "netcore/csv.hpp"

#include <istream>
#include <iterator>
#include <ostream>

#include "netcore/error.hpp"
#include "netcore/simd_scan.hpp"

namespace dynaddr::csv {

std::vector<std::string> split_line(std::string_view line) {
    std::vector<std::string> fields;
    std::string current;
    bool in_quotes = false;
    std::size_t i = 0;
    while (i < line.size()) {
        const char c = line[i];
        if (in_quotes) {
            if (c == '"') {
                if (i + 1 < line.size() && line[i + 1] == '"') {
                    current.push_back('"');
                    ++i;
                } else {
                    in_quotes = false;
                }
            } else {
                current.push_back(c);
            }
        } else if (c == '"') {
            in_quotes = true;
        } else if (c == ',') {
            fields.push_back(std::move(current));
            current.clear();
        } else {
            current.push_back(c);
        }
        ++i;
    }
    if (in_quotes) throw ParseError("unterminated quoted CSV field");
    fields.push_back(std::move(current));
    return fields;
}

void append_field(std::string& out, std::string_view field) {
    const bool needs_quotes =
        field.find_first_of(",\"\n") != std::string_view::npos;
    if (!needs_quotes) {
        out += field;
        return;
    }
    out.push_back('"');
    for (char c : field) {
        if (c == '"') out.push_back('"');
        out.push_back(c);
    }
    out.push_back('"');
}

std::string join_line(const std::vector<std::string>& fields) {
    std::string out;
    for (std::size_t i = 0; i < fields.size(); ++i) {
        if (i > 0) out.push_back(',');
        append_field(out, fields[i]);
    }
    return out;
}

Writer::Writer(std::ostream& out, std::vector<std::string> header)
    : out_(&out), columns_(header.size()) {
    if (header.empty()) throw Error("CSV header must not be empty");
    *out_ << join_line(header) << '\n';
}

void Writer::write_row(const std::vector<std::string>& fields) {
    if (fields.size() != columns_)
        throw Error("CSV row width " + std::to_string(fields.size()) +
                    " != header width " + std::to_string(columns_));
    *out_ << join_line(fields) << '\n';
    ++rows_;
}

ScanReader::ScanReader(std::istream& in)
    : buffer_(std::istreambuf_iterator<char>(in),
              std::istreambuf_iterator<char>()) {
    data_ = buffer_;
    parse_header();
}

ScanReader::ScanReader(std::string_view buffer) : data_(buffer) {
    parse_header();
}

void ScanReader::parse_header() {
    const std::size_t eol = net::simd::find_byte(data_, '\n');
    std::string_view line =
        data_.substr(0, eol == net::simd::npos ? data_.size() : eol);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (line.empty()) throw ParseError("empty CSV stream");
    header_ = split_line(line);
    pos_ = eol == net::simd::npos ? data_.size() : eol + 1;
}

std::size_t ScanReader::column(std::string_view name) const {
    for (std::size_t i = 0; i < header_.size(); ++i)
        if (header_[i] == name) return i;
    throw Error("CSV column '" + std::string(name) + "' not found");
}

void ScanReader::project(const std::vector<std::string_view>& names) {
    wanted_.assign(header_.size(), false);
    for (const auto& name : names) wanted_[column(name)] = true;
}

const std::vector<std::string_view>* ScanReader::next_row() {
    while (pos_ < data_.size()) {
        const std::size_t eol = net::simd::find_byte(data_, '\n', pos_);
        std::string_view line = data_.substr(
            pos_, (eol == net::simd::npos ? data_.size() : eol) - pos_);
        pos_ = eol == net::simd::npos ? data_.size() : eol + 1;
        if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
        if (line.empty()) continue;
        fields_.clear();
        if (net::simd::contains_byte(line, '"')) {
            // Rare quoted row: reuse the full parser and point the views
            // at its (owned) output.
            fallback_ = split_line(line);
            for (const auto& field : fallback_) fields_.emplace_back(field);
        } else if (wanted_.empty()) {
            net::simd::split_unquoted(line, ',',
                                      [&](std::size_t begin, std::size_t end) {
                                          fields_.push_back(
                                              line.substr(begin, end - begin));
                                      });
        } else {
            // Projected scan: count every delimiter (width must still be
            // enforced) but only publish the requested columns.
            fields_.resize(header_.size());
            std::size_t index = 0;
            net::simd::split_unquoted(
                line, ',', [&](std::size_t begin, std::size_t end) {
                    if (index < fields_.size() && wanted_[index])
                        fields_[index] = line.substr(begin, end - begin);
                    ++index;
                });
            if (index != header_.size()) {
                fields_.resize(index);  // make the error below truthful
            }
        }
        if (fields_.size() != header_.size())
            throw ParseError("CSV row width " + std::to_string(fields_.size()) +
                             " != header width " +
                             std::to_string(header_.size()));
        return &fields_;
    }
    return nullptr;
}

}  // namespace dynaddr::csv
