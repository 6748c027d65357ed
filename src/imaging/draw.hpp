// Rasterization primitives used by the synthetic plate renderer.
#pragma once

#include "imaging/geometry.hpp"
#include "imaging/image.hpp"

namespace sdl::imaging {

/// Fills an axis-aligned rectangle (clipped to the image).
void fill_rect(Image& img, Rect rect, color::Rgb8 c);

// The fill ops draw only inside `clip` (and the image). Each pixel's
// result depends on the op and that pixel's previous value alone, so a
// scene drawn op by op over a tile, clipped to it, carries exactly the
// bytes the unclipped draw leaves there.

/// Fills a disk with 2x2 supersampled edge coverage (soft antialiasing so
/// Hough sees realistic gradients rather than staircase edges).
void fill_circle(Image& img, Vec2 center, double radius, color::Rgb8 c,
                 Rect clip = kNoClip);

/// Fills an annulus (well wall rings on the microplate).
void fill_ring(Image& img, Vec2 center, double r_outer, double r_inner, color::Rgb8 c,
               Rect clip = kNoClip);

/// Fills a convex quadrilateral given corners in order.
void fill_quad(Image& img, const Vec2 (&corners)[4], color::Rgb8 c, Rect clip = kNoClip);

/// 1-px circle outline (debug overlays for detected wells).
void draw_circle(Image& img, Vec2 center, double radius, color::Rgb8 c);

}  // namespace sdl::imaging
