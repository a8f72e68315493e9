//! Source locations and spans.
//!
//! Every token, statement and expression in the AST carries a [`Span`] so
//! that analyses, the program database and the debugger can point back at
//! the program text — the paper's program database records "the places
//! where an identifier is defined or used" (§3.2.1), which we express as
//! spans.

use std::fmt;

/// A half-open byte range `[start, end)` into a source buffer, together
/// with the 1-based line on which it starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Span {
    /// Byte offset of the first character.
    pub start: u32,
    /// Byte offset one past the last character.
    pub end: u32,
    /// 1-based source line of `start`.
    pub line: u32,
}

impl Span {
    /// A span covering nothing, used for synthesized nodes.
    pub const DUMMY: Span = Span { start: 0, end: 0, line: 0 };

    /// Creates a span from byte offsets and a starting line.
    pub fn new(start: u32, end: u32, line: u32) -> Self {
        Span { start, end, line }
    }

    /// Returns the smallest span covering both `self` and `other`.
    ///
    /// The resulting line is the line of whichever span starts first.
    #[must_use]
    pub fn merge(self, other: Span) -> Span {
        if self == Span::DUMMY {
            return other;
        }
        if other == Span::DUMMY {
            return self;
        }
        let (line, start) = if self.start <= other.start {
            (self.line, self.start)
        } else {
            (other.line, other.start)
        };
        Span { start, end: self.end.max(other.end), line }
    }

    /// Extracts the spanned slice of `source`.
    ///
    /// Returns an empty string if the span is out of bounds.
    pub fn slice<'a>(&self, source: &'a str) -> &'a str {
        source.get(self.start as usize..self.end as usize).unwrap_or("")
    }

    /// Number of bytes covered.
    pub fn len(&self) -> u32 {
        self.end.saturating_sub(self.start)
    }

    /// Whether the span covers zero bytes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}", self.line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_orders_by_start() {
        let a = Span::new(10, 20, 2);
        let b = Span::new(5, 12, 1);
        let m = a.merge(b);
        assert_eq!(m, Span::new(5, 20, 1));
    }

    #[test]
    fn merge_with_dummy_is_identity() {
        let a = Span::new(3, 9, 1);
        assert_eq!(a.merge(Span::DUMMY), a);
        assert_eq!(Span::DUMMY.merge(a), a);
    }

    #[test]
    fn slice_in_bounds() {
        let src = "hello world";
        let s = Span::new(6, 11, 1);
        assert_eq!(s.slice(src), "world");
    }

    #[test]
    fn slice_out_of_bounds_is_empty() {
        let s = Span::new(5, 500, 1);
        assert_eq!(s.slice("abc"), "");
    }

    #[test]
    fn len_and_is_empty() {
        assert_eq!(Span::new(2, 7, 1).len(), 5);
        assert!(Span::DUMMY.is_empty());
        assert!(!Span::new(0, 1, 1).is_empty());
    }
}
