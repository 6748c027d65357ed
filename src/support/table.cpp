#include "support/table.hpp"

#include <algorithm>
#include <cstdio>

#include "support/common.hpp"

namespace sdl::support {

TextTable::TextTable(std::vector<std::string> header) : header_(std::move(header)) {
    check(!header_.empty(), "table header must be non-empty");
    alignment_.assign(header_.size(), Align::Left);
}

void TextTable::set_alignment(std::vector<Align> alignment) {
    check(alignment.size() == header_.size(), "alignment width mismatch");
    alignment_ = std::move(alignment);
}

void TextTable::add_row(std::vector<std::string> cells) {
    check(cells.size() == header_.size(), "table row width mismatch");
    rows_.push_back(std::move(cells));
}

std::string TextTable::str() const {
    const std::size_t n_cols = header_.size();
    std::vector<std::size_t> widths(n_cols);
    for (std::size_t c = 0; c < n_cols; ++c) widths[c] = header_[c].size();
    for (const std::vector<std::string>& row : rows_) {
        for (std::size_t c = 0; c < n_cols; ++c) {
            widths[c] = std::max(widths[c], row[c].size());
        }
    }

    auto render_cells = [&](const std::vector<std::string>& cells, std::string& out) {
        for (std::size_t c = 0; c < n_cols; ++c) {
            if (c > 0) out += " | ";
            const std::size_t padding = widths[c] - cells[c].size();
            if (alignment_[c] == Align::Right) out.append(padding, ' ');
            out += cells[c];
            if (alignment_[c] == Align::Left && c + 1 < n_cols) out.append(padding, ' ');
        }
        out += '\n';
    };

    std::string out;
    render_cells(header_, out);
    for (std::size_t c = 0; c < n_cols; ++c) {
        if (c > 0) out += "-+-";
        out.append(widths[c], '-');
    }
    out += '\n';
    for (const std::vector<std::string>& row : rows_) render_cells(row, out);
    return out;
}

std::string fmt_double(double value, int decimals) {
    char buf[64];
    // sdlbench-lint: allow(printf-float): fixed-decimals table cell for humans; artifacts use fmt_roundtrip
    std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
    return buf;
}

}  // namespace sdl::support
