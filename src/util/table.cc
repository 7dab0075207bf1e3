#include "util/table.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "util/logging.h"

namespace elk::util {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers))
{
}

void
Table::add_row(std::vector<std::string> cells)
{
    rows_.push_back(std::move(cells));
}

std::string
Table::format_cell(double v)
{
    char buf[64];
    if (v == 0.0) {
        return "0";
    }
    double mag = std::fabs(v);
    if (mag >= 1e6 || mag < 1e-3) {
        std::snprintf(buf, sizeof(buf), "%.3e", v);
    } else if (mag >= 100) {
        std::snprintf(buf, sizeof(buf), "%.1f", v);
    } else {
        std::snprintf(buf, sizeof(buf), "%.3f", v);
    }
    return buf;
}

std::string
Table::format_cell(int v)
{
    return std::to_string(v);
}

std::string
Table::format_cell(long v)
{
    return std::to_string(v);
}

std::string
Table::format_cell(unsigned long v)
{
    return std::to_string(v);
}

std::string
Table::format_cell(unsigned long long v)
{
    return std::to_string(v);
}

std::string
Table::to_text() const
{
    std::vector<size_t> width(headers_.size());
    for (size_t c = 0; c < headers_.size(); ++c) {
        width[c] = headers_[c].size();
    }
    for (const auto& row : rows_) {
        for (size_t c = 0; c < row.size(); ++c) {
            if (c >= width.size()) {
                width.push_back(row[c].size());
            } else {
                width[c] = std::max(width[c], row[c].size());
            }
        }
    }
    std::ostringstream out;
    auto emit_row = [&](const std::vector<std::string>& row) {
        for (size_t c = 0; c < width.size(); ++c) {
            const std::string cell = c < row.size() ? row[c] : "";
            out << "  " << cell << std::string(width[c] - cell.size(), ' ');
        }
        out << "\n";
    };
    emit_row(headers_);
    size_t total = 0;
    for (size_t w : width) {
        total += w + 2;
    }
    out << std::string(total, '-') << "\n";
    for (const auto& row : rows_) {
        emit_row(row);
    }
    return out.str();
}

std::string
Table::to_csv() const
{
    std::ostringstream out;
    auto emit_row = [&](const std::vector<std::string>& row) {
        for (size_t c = 0; c < row.size(); ++c) {
            if (c) {
                out << ",";
            }
            out << row[c];
        }
        out << "\n";
    };
    emit_row(headers_);
    for (const auto& row : rows_) {
        emit_row(row);
    }
    return out.str();
}

void
Table::print(const std::string& title) const
{
    std::printf("\n== %s ==\n%s", title.c_str(), to_text().c_str());
    std::fflush(stdout);
}

void
Table::write_csv(const std::string& name) const
{
    namespace fs = std::filesystem;
    std::error_code ec;
    fs::create_directories("bench_results", ec);
    if (ec) {
        warn("cannot create bench_results/: " + ec.message());
        return;
    }
    std::ofstream file("bench_results/" + name + ".csv");
    if (!file) {
        warn("cannot open bench_results/" + name + ".csv");
        return;
    }
    file << to_csv();
}

}  // namespace elk::util
