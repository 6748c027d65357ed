// Aligned text-table rendering for benchmark reports.
//
// The Table-1 and Figure-3/4 harnesses print their results as aligned
// monospace tables matching the rows the paper reports.
#pragma once

#include <string>
#include <vector>

namespace sdl::support {

class TextTable {
public:
    enum class Align { Left, Right };

    /// Column headers; every row must have the same width.
    explicit TextTable(std::vector<std::string> header);

    /// Per-column alignment (default all Left).
    void set_alignment(std::vector<Align> alignment);

    void add_row(std::vector<std::string> cells);

    /// Renders with column separators and a header rule, e.g.
    ///   Metric                     | Paper       | Measured
    ///   ---------------------------+-------------+---------
    ///   Time without humans        | 8 h 12 m    | 8 h 12 m
    [[nodiscard]] std::string str() const;

private:
    std::vector<std::string> header_;
    std::vector<Align> alignment_;
    std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with `decimals` fraction digits.
[[nodiscard]] std::string fmt_double(double value, int decimals = 2);

}  // namespace sdl::support
