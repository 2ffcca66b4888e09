//! Planar integer geometry used throughout the ParchMint data model.
//!
//! All coordinates are expressed in integer micrometres (µm), matching the
//! unit convention of the ParchMint interchange format. Integer coordinates
//! keep serialization lossless and make geometric predicates exact.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Neg, Sub, SubAssign};

/// A point in the device plane, in micrometres.
///
/// # Examples
///
/// ```
/// use parchmint::geometry::Point;
///
/// let a = Point::new(100, 200);
/// let b = Point::new(130, 160);
/// assert_eq!(a.manhattan_distance(b), 70);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Point {
    /// Horizontal coordinate in µm.
    pub x: i64,
    /// Vertical coordinate in µm.
    pub y: i64,
}

impl Point {
    /// The origin `(0, 0)`.
    pub const ORIGIN: Point = Point { x: 0, y: 0 };

    /// Creates a point from its coordinates.
    pub const fn new(x: i64, y: i64) -> Self {
        Point { x, y }
    }

    /// L1 (taxicab) distance to `other`.
    ///
    /// Channel routing on microfluidic chips is rectilinear, so Manhattan
    /// distance is the natural wirelength metric.
    pub fn manhattan_distance(self, other: Point) -> i64 {
        (self.x - other.x).abs() + (self.y - other.y).abs()
    }

    /// Squared Euclidean distance to `other`, exact in integers.
    pub fn distance_squared(self, other: Point) -> i64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Euclidean distance to `other` as a float.
    pub fn distance(self, other: Point) -> f64 {
        (self.distance_squared(other) as f64).sqrt()
    }

    /// Component-wise minimum of two points.
    pub fn min(self, other: Point) -> Point {
        Point::new(self.x.min(other.x), self.y.min(other.y))
    }

    /// Component-wise maximum of two points.
    pub fn max(self, other: Point) -> Point {
        Point::new(self.x.max(other.x), self.y.max(other.y))
    }

    /// Translates the point by `(dx, dy)`.
    pub fn translated(self, dx: i64, dy: i64) -> Point {
        Point::new(self.x + dx, self.y + dy)
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

impl From<(i64, i64)> for Point {
    fn from((x, y): (i64, i64)) -> Self {
        Point::new(x, y)
    }
}

impl From<Point> for (i64, i64) {
    fn from(p: Point) -> Self {
        (p.x, p.y)
    }
}

impl Add for Point {
    type Output = Point;
    fn add(self, rhs: Point) -> Point {
        Point::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl AddAssign for Point {
    fn add_assign(&mut self, rhs: Point) {
        self.x += rhs.x;
        self.y += rhs.y;
    }
}

impl Sub for Point {
    type Output = Point;
    fn sub(self, rhs: Point) -> Point {
        Point::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl SubAssign for Point {
    fn sub_assign(&mut self, rhs: Point) {
        self.x -= rhs.x;
        self.y -= rhs.y;
    }
}

impl Neg for Point {
    type Output = Point;
    fn neg(self) -> Point {
        Point::new(-self.x, -self.y)
    }
}

/// The rectangular extent of a component or device, in micrometres.
///
/// ParchMint serializes spans as the `x-span` / `y-span` key pair; `Span`
/// groups the pair and guards the "non-negative" invariant at construction.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Span {
    /// Extent along the x axis, in µm.
    #[serde(rename = "x-span")]
    pub x: i64,
    /// Extent along the y axis, in µm.
    #[serde(rename = "y-span")]
    pub y: i64,
}

impl Span {
    /// Creates a span, clamping negative extents to zero.
    pub fn new(x: i64, y: i64) -> Self {
        Span {
            x: x.max(0),
            y: y.max(0),
        }
    }

    /// A square span with side `side`.
    pub fn square(side: i64) -> Self {
        Span::new(side, side)
    }

    /// Area in µm².
    pub fn area(self) -> i64 {
        self.x * self.y
    }

    /// Returns the span rotated a quarter turn (x and y swapped).
    pub fn rotated(self) -> Span {
        Span {
            x: self.y,
            y: self.x,
        }
    }

    /// True when either extent is zero.
    pub fn is_empty(self) -> bool {
        self.x == 0 || self.y == 0
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}×{}", self.x, self.y)
    }
}

impl From<(i64, i64)> for Span {
    fn from((x, y): (i64, i64)) -> Self {
        Span::new(x, y)
    }
}

/// An axis-aligned rectangle, defined by its minimum corner and span.
///
/// # Examples
///
/// ```
/// use parchmint::geometry::{Point, Rect, Span};
///
/// let r = Rect::new(Point::new(0, 0), Span::new(100, 50));
/// assert!(r.contains(Point::new(99, 49)));
/// assert!(!r.contains(Point::new(100, 0))); // max edge is exclusive
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct Rect {
    /// Minimum (lower-left) corner.
    pub min: Point,
    /// Extent of the rectangle.
    pub span: Span,
}

impl Rect {
    /// Creates a rectangle from its minimum corner and span.
    pub const fn new(min: Point, span: Span) -> Self {
        Rect { min, span }
    }

    /// Creates a rectangle from two opposite corners, in any order.
    pub fn from_corners(a: Point, b: Point) -> Self {
        let min = a.min(b);
        let max = a.max(b);
        Rect {
            min,
            span: Span::new(max.x - min.x, max.y - min.y),
        }
    }

    /// A thin rectangle standing in for the rectilinear segment `a`–`b`:
    /// zero-extent axes are widened to 1 µm, so [`Rect::intersects`] sees
    /// the segment's interior.
    pub fn of_segment(a: Point, b: Point) -> Self {
        let r = Rect::from_corners(a, b);
        Rect::new(r.min, Span::new(r.span.x.max(1), r.span.y.max(1)))
    }

    /// The corner opposite [`Rect::min`] (exclusive).
    pub fn max(self) -> Point {
        Point::new(self.min.x + self.span.x, self.min.y + self.span.y)
    }

    /// The centre of the rectangle, rounded toward the minimum corner.
    pub fn center(self) -> Point {
        Point::new(self.min.x + self.span.x / 2, self.min.y + self.span.y / 2)
    }

    /// Area in µm².
    pub fn area(self) -> i64 {
        self.span.area()
    }

    /// True when the half-open rectangle `[min, max)` contains `p`.
    pub fn contains(self, p: Point) -> bool {
        let max = self.max();
        p.x >= self.min.x && p.x < max.x && p.y >= self.min.y && p.y < max.y
    }

    /// True when `other` lies entirely within `self` (closed comparison).
    pub fn contains_rect(self, other: Rect) -> bool {
        let max = self.max();
        let omax = other.max();
        other.min.x >= self.min.x && other.min.y >= self.min.y && omax.x <= max.x && omax.y <= max.y
    }

    /// True when the interiors of the two rectangles overlap.
    pub fn intersects(self, other: Rect) -> bool {
        let a_max = self.max();
        let b_max = other.max();
        self.min.x < b_max.x
            && other.min.x < a_max.x
            && self.min.y < b_max.y
            && other.min.y < a_max.y
    }

    /// Smallest rectangle covering both `self` and `other`.
    pub fn union(self, other: Rect) -> Rect {
        if self.span.is_empty() {
            return other;
        }
        if other.span.is_empty() {
            return self;
        }
        Rect::from_corners(self.min.min(other.min), self.max().max(other.max()))
    }

    /// The overlap of the two rectangles, or `None` when they are disjoint.
    pub fn intersection(self, other: Rect) -> Option<Rect> {
        if !self.intersects(other) {
            return None;
        }
        let min = self.min.max(other.min);
        let max = self.max().min(other.max());
        Some(Rect::from_corners(min, max))
    }

    /// The rectangle grown by `margin` on every side (shrunk when negative).
    pub fn inflated(self, margin: i64) -> Rect {
        Rect {
            min: self.min.translated(-margin, -margin),
            span: Span::new(self.span.x + 2 * margin, self.span.y + 2 * margin),
        }
    }

    /// The rectangle translated by `(dx, dy)`.
    pub fn translated(self, dx: i64, dy: i64) -> Rect {
        Rect {
            min: self.min.translated(dx, dy),
            span: self.span,
        }
    }
}

impl fmt::Display for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} {}]", self.min, self.span)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_arithmetic() {
        let a = Point::new(3, 4);
        let b = Point::new(1, 2);
        assert_eq!(a + b, Point::new(4, 6));
        assert_eq!(a - b, Point::new(2, 2));
        assert_eq!(-a, Point::new(-3, -4));
        let mut c = a;
        c += b;
        assert_eq!(c, Point::new(4, 6));
        c -= b;
        assert_eq!(c, a);
    }

    #[test]
    fn point_distances() {
        let a = Point::new(0, 0);
        let b = Point::new(3, 4);
        assert_eq!(a.manhattan_distance(b), 7);
        assert_eq!(a.distance_squared(b), 25);
        assert!((a.distance(b) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn point_min_max_translate() {
        let a = Point::new(1, 9);
        let b = Point::new(5, 2);
        assert_eq!(a.min(b), Point::new(1, 2));
        assert_eq!(a.max(b), Point::new(5, 9));
        assert_eq!(a.translated(-1, 1), Point::new(0, 10));
    }

    #[test]
    fn span_clamps_negative() {
        let s = Span::new(-5, 10);
        assert_eq!(s.x, 0);
        assert_eq!(s.y, 10);
        assert!(s.is_empty());
    }

    #[test]
    fn span_area_rotation() {
        let s = Span::new(200, 100);
        assert_eq!(s.area(), 20_000);
        assert_eq!(s.rotated(), Span::new(100, 200));
        assert_eq!(Span::square(50), Span::new(50, 50));
    }

    #[test]
    fn rect_contains_half_open() {
        let r = Rect::new(Point::new(10, 10), Span::new(20, 20));
        assert!(r.contains(Point::new(10, 10)));
        assert!(r.contains(Point::new(29, 29)));
        assert!(!r.contains(Point::new(30, 10)));
        assert!(!r.contains(Point::new(10, 30)));
        assert!(!r.contains(Point::new(9, 15)));
    }

    #[test]
    fn rect_from_corners_any_order() {
        let a = Rect::from_corners(Point::new(5, 7), Point::new(1, 2));
        assert_eq!(a.min, Point::new(1, 2));
        assert_eq!(a.span, Span::new(4, 5));
    }

    #[test]
    fn rect_intersection_union() {
        let a = Rect::new(Point::new(0, 0), Span::new(10, 10));
        let b = Rect::new(Point::new(5, 5), Span::new(10, 10));
        let i = a.intersection(b).unwrap();
        assert_eq!(i, Rect::new(Point::new(5, 5), Span::new(5, 5)));
        let u = a.union(b);
        assert_eq!(u, Rect::new(Point::new(0, 0), Span::new(15, 15)));

        let c = Rect::new(Point::new(100, 100), Span::new(1, 1));
        assert!(a.intersection(c).is_none());
        assert!(!a.intersects(c));
    }

    #[test]
    fn rect_union_with_empty() {
        let empty = Rect::default();
        let a = Rect::new(Point::new(3, 3), Span::new(2, 2));
        assert_eq!(empty.union(a), a);
        assert_eq!(a.union(empty), a);
    }

    #[test]
    fn rect_touching_edges_do_not_intersect() {
        let a = Rect::new(Point::new(0, 0), Span::new(10, 10));
        let b = Rect::new(Point::new(10, 0), Span::new(10, 10));
        assert!(!a.intersects(b));
    }

    #[test]
    fn segment_rects_are_one_micron_thick() {
        let horizontal = Rect::of_segment(Point::new(10, 5), Point::new(0, 5));
        assert_eq!(horizontal, Rect::new(Point::new(0, 5), Span::new(10, 1)));
        let vertical = Rect::of_segment(Point::new(3, 0), Point::new(3, 8));
        assert_eq!(vertical.span, Span::new(1, 8));
        let point = Rect::of_segment(Point::new(3, 3), Point::new(3, 3));
        assert_eq!(point.span, Span::new(1, 1));
        assert!(horizontal.intersects(Rect::of_segment(Point::new(4, 0), Point::new(4, 9))));
    }

    #[test]
    fn rect_inflate_contains() {
        let a = Rect::new(Point::new(10, 10), Span::new(10, 10));
        let big = a.inflated(5);
        assert_eq!(big.min, Point::new(5, 5));
        assert_eq!(big.span, Span::new(20, 20));
        assert!(big.contains_rect(a));
        assert!(!a.contains_rect(big));
    }

    #[test]
    fn rect_center() {
        let a = Rect::new(Point::new(0, 0), Span::new(10, 11));
        assert_eq!(a.center(), Point::new(5, 5));
    }

    #[test]
    fn span_serde_kebab_keys() {
        let s = Span::new(750, 1200);
        let json = serde_json::to_string(&s).unwrap();
        assert_eq!(json, r#"{"x-span":750,"y-span":1200}"#);
        let back: Span = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}
