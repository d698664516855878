#include "netcore/ascii_chart.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "netcore/error.hpp"

namespace dynaddr::chart {

namespace {

constexpr const char* kGlyphs = "*+o#x@%&";

std::string format_value(double v) {
    char buffer[32];
    if (v == 0.0) return "0";
    if (std::abs(v) < 1e7 && v == std::floor(v))
        std::snprintf(buffer, sizeof buffer, "%.0f", v);
    else if (std::abs(v) >= 1.0)
        std::snprintf(buffer, sizeof buffer, "%.4g", v);
    else
        std::snprintf(buffer, sizeof buffer, "%.3g", v);
    return buffer;
}

}  // namespace

std::string render_cdf_chart(const std::vector<Series>& series,
                             const ChartOptions& options) {
    if (series.empty()) return "(no series)\n";
    const int width = std::max(options.width, 10);
    const int height = std::max(options.height, 4);

    double min_x = 0.0, max_x = 0.0;
    bool have_x = false;
    for (const auto& s : series) {
        for (const auto& p : s.points) {
            if (options.log_x && p.x <= 0.0) continue;
            const double x = options.log_x ? std::log10(p.x) : p.x;
            if (!have_x) {
                min_x = max_x = x;
                have_x = true;
            } else {
                min_x = std::min(min_x, x);
                max_x = std::max(max_x, x);
            }
        }
    }
    if (!have_x || max_x == min_x) max_x = min_x + 1.0;

    // grid[row][col]; row 0 is the top (y = 1.0).
    std::vector<std::string> grid(std::size_t(height), std::string(std::size_t(width), ' '));

    for (std::size_t si = 0; si < series.size(); ++si) {
        const char glyph = kGlyphs[si % 8];
        const auto& pts = series[si].points;
        // Render the CDF as a step function sampled per column.
        for (int col = 0; col < width; ++col) {
            const double xv = min_x + (max_x - min_x) * (double(col) / (width - 1));
            const double x = options.log_x ? std::pow(10.0, xv) : xv;
            // y = greatest CDF value among points with p.x <= x.
            double y = -1.0;
            for (const auto& p : pts) {
                if (p.x <= x)
                    y = p.y;
                else
                    break;
            }
            if (y < 0.0) continue;
            int row = height - 1 - int(std::lround(y * (height - 1)));
            row = std::clamp(row, 0, height - 1);
            grid[std::size_t(row)][std::size_t(col)] = glyph;
        }
    }

    std::string out;
    if (!options.y_label.empty()) out += options.y_label + "\n";
    for (int row = 0; row < height; ++row) {
        const double y = 1.0 - double(row) / (height - 1);
        char axis[8];
        std::snprintf(axis, sizeof axis, "%4.2f", y);
        out += axis;
        out += " |";
        out += grid[std::size_t(row)];
        out += '\n';
    }
    out += "     +";
    out += std::string(std::size_t(width), '-');
    out += '\n';
    {
        // x-axis tick labels at the ends and middle.
        auto tick = [&](double frac) {
            const double xv = min_x + (max_x - min_x) * frac;
            return format_value(options.log_x ? std::pow(10.0, xv) : xv);
        };
        std::string line(std::size_t(width + 6), ' ');
        const std::string lo = tick(0.0), mid = tick(0.5), hi = tick(1.0);
        line.replace(6, lo.size(), lo);
        const std::size_t mid_pos = 6 + std::size_t(width) / 2 - mid.size() / 2;
        line.replace(mid_pos, mid.size(), mid);
        const std::size_t hi_pos = 6 + std::size_t(width) - hi.size();
        line.replace(hi_pos, hi.size(), hi);
        out += line;
        out += '\n';
    }
    if (!options.x_label.empty()) out += "      " + options.x_label + "\n";
    out += "      legend:";
    for (std::size_t si = 0; si < series.size(); ++si) {
        out += "  ";
        out += kGlyphs[si % 8];
        out += "=" + series[si].label;
    }
    out += '\n';
    return out;
}

std::string render_bar_chart(const std::vector<std::pair<std::string, double>>& bars,
                             int width, double max_value) {
    if (bars.empty()) return "(no data)\n";
    std::size_t label_width = 0;
    double peak = max_value;
    for (const auto& [label, value] : bars) {
        label_width = std::max(label_width, label.size());
        if (max_value <= 0.0) peak = std::max(peak, value);
    }
    if (peak <= 0.0) peak = 1.0;
    std::string out;
    for (const auto& [label, value] : bars) {
        out += label;
        out += std::string(label_width - label.size(), ' ');
        out += " |";
        const int len = int(std::lround(std::clamp(value / peak, 0.0, 1.0) * width));
        out += std::string(std::size_t(len), '#');
        out += " " + format_value(value) + "\n";
    }
    return out;
}

std::string render_fraction_chart(
    const std::vector<std::tuple<std::string, double, double>>& parts, int width) {
    if (parts.empty()) return "(no data)\n";
    std::size_t label_width = 0;
    for (const auto& [label, num, den] : parts)
        label_width = std::max(label_width, label.size());
    std::string out;
    for (const auto& [label, num, den] : parts) {
        out += label;
        out += std::string(label_width - label.size(), ' ');
        out += " |";
        const double frac = den > 0.0 ? std::clamp(num / den, 0.0, 1.0) : 0.0;
        const int filled = int(std::lround(frac * width));
        out += std::string(std::size_t(filled), '#');
        out += std::string(std::size_t(width - filled), '.');
        char buffer[48];
        std::snprintf(buffer, sizeof buffer, "| %5.1f%% (%g/%g)\n", frac * 100.0,
                      num, den);
        out += buffer;
    }
    return out;
}

std::string render_table(const std::vector<std::string>& header,
                         const std::vector<std::vector<std::string>>& rows) {
    if (header.empty()) throw Error("table needs a header");
    std::vector<std::size_t> widths(header.size());
    for (std::size_t c = 0; c < header.size(); ++c) widths[c] = header[c].size();
    for (const auto& row : rows) {
        if (row.size() != header.size())
            throw Error("table row width mismatch");
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());
    }
    auto emit_row = [&](const std::vector<std::string>& row) {
        std::string line;
        for (std::size_t c = 0; c < row.size(); ++c) {
            if (c > 0) line += "  ";
            const std::size_t pad = widths[c] - row[c].size();
            if (c == 0)
                line += row[c] + std::string(pad, ' ');  // left-align names
            else
                line += std::string(pad, ' ') + row[c];  // right-align numbers
        }
        // Trim trailing spaces.
        while (!line.empty() && line.back() == ' ') line.pop_back();
        return line + "\n";
    };
    std::string out = emit_row(header);
    std::size_t total = header.size() * 2 - 2;
    for (auto w : widths) total += w;
    out += std::string(total, '-') + "\n";
    for (const auto& row : rows) out += emit_row(row);
    return out;
}

}  // namespace dynaddr::chart
