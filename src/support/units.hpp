// Strong unit types used throughout the simulator.
//
// Durations and liquid volumes are the two quantities the paper's
// evaluation is built on (Table 1 is entirely durations; solver proposals
// are volumes), so both get dedicated types rather than raw doubles
// (Core Guidelines I.4: make interfaces precisely and strongly typed).
#pragma once

#include <compare>
#include <string>

namespace sdl::support {

/// A span of simulated (or wall-clock) time, stored in seconds.
class Duration {
public:
    constexpr Duration() noexcept = default;

    [[nodiscard]] static constexpr Duration seconds(double s) noexcept { return Duration{s}; }
    [[nodiscard]] static constexpr Duration minutes(double m) noexcept { return Duration{m * 60.0}; }
    [[nodiscard]] static constexpr Duration hours(double h) noexcept { return Duration{h * 3600.0}; }
    [[nodiscard]] static constexpr Duration zero() noexcept { return Duration{0.0}; }

    [[nodiscard]] constexpr double to_seconds() const noexcept { return seconds_; }
    [[nodiscard]] constexpr double to_minutes() const noexcept { return seconds_ / 60.0; }

    constexpr Duration& operator+=(Duration other) noexcept {
        seconds_ += other.seconds_;
        return *this;
    }
    constexpr Duration& operator-=(Duration other) noexcept {
        seconds_ -= other.seconds_;
        return *this;
    }
    constexpr Duration& operator*=(double k) noexcept {
        seconds_ *= k;
        return *this;
    }

    friend constexpr Duration operator+(Duration a, Duration b) noexcept {
        return Duration{a.seconds_ + b.seconds_};
    }
    friend constexpr Duration operator-(Duration a, Duration b) noexcept {
        return Duration{a.seconds_ - b.seconds_};
    }
    friend constexpr Duration operator*(Duration a, double k) noexcept {
        return Duration{a.seconds_ * k};
    }
    friend constexpr Duration operator*(double k, Duration a) noexcept { return a * k; }
    friend constexpr double operator/(Duration a, Duration b) noexcept {
        return a.seconds_ / b.seconds_;
    }
    friend constexpr Duration operator/(Duration a, double k) noexcept {
        return Duration{a.seconds_ / k};
    }
    friend constexpr auto operator<=>(Duration a, Duration b) noexcept = default;

    /// Human-readable rendering in the paper's style, e.g. "8 h 12 m",
    /// "3 m 48 s", "42.6 s".
    [[nodiscard]] std::string pretty() const;

private:
    constexpr explicit Duration(double s) noexcept : seconds_(s) {}
    double seconds_ = 0.0;
};

/// A point on a timeline (seconds since experiment start).
class TimePoint {
public:
    constexpr TimePoint() noexcept = default;
    [[nodiscard]] static constexpr TimePoint from_seconds(double s) noexcept {
        return TimePoint{s};
    }

    [[nodiscard]] constexpr double to_seconds() const noexcept { return seconds_; }
    [[nodiscard]] constexpr double to_minutes() const noexcept { return seconds_ / 60.0; }

    friend constexpr TimePoint operator+(TimePoint t, Duration d) noexcept {
        return TimePoint{t.seconds_ + d.to_seconds()};
    }
    friend constexpr Duration operator-(TimePoint a, TimePoint b) noexcept {
        return Duration::seconds(a.seconds_ - b.seconds_);
    }
    friend constexpr auto operator<=>(TimePoint a, TimePoint b) noexcept = default;

private:
    constexpr explicit TimePoint(double s) noexcept : seconds_(s) {}
    double seconds_ = 0.0;
};

/// Liquid volume in microliters (the ot2 pipettes in µL).
class Volume {
public:
    constexpr Volume() noexcept = default;

    [[nodiscard]] static constexpr Volume microliters(double ul) noexcept { return Volume{ul}; }
    [[nodiscard]] static constexpr Volume milliliters(double ml) noexcept {
        return Volume{ml * 1000.0};
    }
    [[nodiscard]] static constexpr Volume zero() noexcept { return Volume{0.0}; }

    [[nodiscard]] constexpr double to_microliters() const noexcept { return ul_; }
    [[nodiscard]] constexpr double to_milliliters() const noexcept { return ul_ / 1000.0; }

    constexpr Volume& operator+=(Volume other) noexcept {
        ul_ += other.ul_;
        return *this;
    }
    constexpr Volume& operator-=(Volume other) noexcept {
        ul_ -= other.ul_;
        return *this;
    }

    friend constexpr Volume operator+(Volume a, Volume b) noexcept {
        return Volume{a.ul_ + b.ul_};
    }
    friend constexpr Volume operator-(Volume a, Volume b) noexcept {
        return Volume{a.ul_ - b.ul_};
    }
    friend constexpr Volume operator*(Volume a, double k) noexcept { return Volume{a.ul_ * k}; }
    friend constexpr Volume operator*(double k, Volume a) noexcept { return a * k; }
    friend constexpr double operator/(Volume a, Volume b) noexcept { return a.ul_ / b.ul_; }
    friend constexpr auto operator<=>(Volume a, Volume b) noexcept = default;

    [[nodiscard]] std::string pretty() const;

private:
    constexpr explicit Volume(double ul) noexcept : ul_(ul) {}
    double ul_ = 0.0;
};

}  // namespace sdl::support
