//! Interval abstract domain for the value analysis (`absint`).
//!
//! An [`Interval`] is a contiguous range `[lo, hi]` of `i64` values with
//! *literal* endpoints: `[i64::MIN, i64::MAX]` is ⊤ and the canonical
//! empty range (`lo > hi`) is ⊥. There is no symbolic ±∞ — an endpoint
//! at `i64::MIN`/`i64::MAX` simply means the bound is the type bound,
//! which keeps `contains` exact and makes the soundness proptest a plain
//! `lo <= v && v <= hi` check.
//!
//! **Wrapping runtime.** `ppd-runtime` evaluates `+ - *
//! /` with `wrapping_*` semantics (and traps on zero divisors). The
//! transfer functions here therefore compute the *exact* mathematical
//! result range in `i128` and return ⊤ whenever that range escapes
//! `i64` — a wrapped range is generally not contiguous, and ⊤ is the
//! only sound interval over-approximation of it.

use ppd_lang::ast::{BinOp, UnOp};
use std::fmt;

/// A contiguous range of `i64` values; `lo > hi` encodes ⊥.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Interval {
    /// Smallest possible value.
    pub lo: i64,
    /// Largest possible value.
    pub hi: i64,
}

impl Interval {
    /// Every `i64` value (⊤).
    pub const TOP: Interval = Interval { lo: i64::MIN, hi: i64::MAX };
    /// No value (⊥): the canonical empty range.
    pub const BOT: Interval = Interval { lo: i64::MAX, hi: i64::MIN };

    /// `[lo, hi]`, normalized to the canonical ⊥ when empty.
    pub fn new(lo: i64, hi: i64) -> Interval {
        if lo > hi {
            Interval::BOT
        } else {
            Interval { lo, hi }
        }
    }

    /// The single value `v`.
    pub fn singleton(v: i64) -> Interval {
        Interval { lo: v, hi: v }
    }

    /// The runtime encoding of a boolean.
    pub fn of_bool(b: bool) -> Interval {
        Interval::singleton(b as i64)
    }

    /// Either truth value, `{0, 1}`.
    pub const BOOL: Interval = Interval { lo: 0, hi: 1 };

    /// Whether this is the empty range.
    pub fn is_bot(self) -> bool {
        self.lo > self.hi
    }

    /// Whether this is the full range.
    pub fn is_top(self) -> bool {
        self == Interval::TOP
    }

    /// The value if the range is a single constant.
    pub fn as_const(self) -> Option<i64> {
        (self.lo == self.hi).then_some(self.lo)
    }

    /// Whether `v` may be the value.
    pub fn contains(self, v: i64) -> bool {
        self.lo <= v && v <= self.hi
    }

    /// Whether every value of `self` is in `other` (`⊑`).
    pub fn subset_of(self, other: Interval) -> bool {
        self.is_bot() || (other.lo <= self.lo && self.hi <= other.hi)
    }

    /// Least upper bound (`⊔`).
    pub fn join(self, other: Interval) -> Interval {
        if self.is_bot() {
            return other;
        }
        if other.is_bot() {
            return self;
        }
        Interval { lo: self.lo.min(other.lo), hi: self.hi.max(other.hi) }
    }

    /// Greatest lower bound (`⊓`); ⊥ iff the ranges are disjoint.
    pub fn meet(self, other: Interval) -> Interval {
        Interval::new(self.lo.max(other.lo), self.hi.min(other.hi))
    }

    /// Whether the two ranges share no value. ⊥ is disjoint from
    /// everything; ⊤ from nothing (except ⊥).
    pub fn disjoint(self, other: Interval) -> bool {
        self.meet(other).is_bot()
    }

    /// Standard widening (`∇`): any endpoint that grew jumps to the type
    /// bound, guaranteeing the ascending chain stabilizes.
    pub fn widen(self, newer: Interval) -> Interval {
        if self.is_bot() {
            return newer;
        }
        if newer.is_bot() {
            return self;
        }
        Interval {
            lo: if newer.lo < self.lo { i64::MIN } else { self.lo },
            hi: if newer.hi > self.hi { i64::MAX } else { self.hi },
        }
    }

    /// Standard narrowing (`Δ`): endpoints previously widened to the
    /// type bound may recover the refined bound; finite endpoints keep
    /// their (sound) value.
    pub fn narrow(self, refined: Interval) -> Interval {
        if self.is_bot() || refined.is_bot() {
            return self;
        }
        Interval::new(
            if self.lo == i64::MIN { refined.lo } else { self.lo },
            if self.hi == i64::MAX { refined.hi } else { self.hi },
        )
    }

    fn from_exact(lo: i128, hi: i128) -> Interval {
        if lo < i64::MIN as i128 || hi > i64::MAX as i128 {
            // The exact range escapes i64: the wrapping runtime result
            // set is not contiguous, so only ⊤ is sound.
            Interval::TOP
        } else {
            Interval::new(lo as i64, hi as i64)
        }
    }

    /// Unary operator transfer.
    pub fn apply_unop(self, op: UnOp) -> Interval {
        if self.is_bot() {
            return Interval::BOT;
        }
        match op {
            UnOp::Neg => Interval::from_exact(-(self.hi as i128), -(self.lo as i128)),
            UnOp::Not => {
                if !self.contains(0) {
                    Interval::of_bool(false)
                } else if self.as_const() == Some(0) {
                    Interval::of_bool(true)
                } else {
                    Interval::BOOL
                }
            }
        }
    }

    /// Binary operator transfer. For `/` and `%` the zero divisor is
    /// excluded — the runtime traps on it, so no *value* flows from that
    /// case. `&&`/`||` model the runtime's short-circuit + 0/1
    /// normalization.
    pub fn apply_binop(op: BinOp, l: Interval, r: Interval) -> Interval {
        if l.is_bot() || r.is_bot() {
            return Interval::BOT;
        }
        let (llo, lhi) = (l.lo as i128, l.hi as i128);
        let (rlo, rhi) = (r.lo as i128, r.hi as i128);
        match op {
            BinOp::Add => Interval::from_exact(llo + rlo, lhi + rhi),
            BinOp::Sub => Interval::from_exact(llo - rhi, lhi - rlo),
            BinOp::Mul => {
                let products = [llo * rlo, llo * rhi, lhi * rlo, lhi * rhi];
                Interval::from_exact(
                    *products.iter().min().expect("non-empty"),
                    *products.iter().max().expect("non-empty"),
                )
            }
            BinOp::Div => Interval::div(l, r),
            BinOp::Rem => Interval::rem(l, r),
            BinOp::Eq => match (l.as_const(), r.as_const()) {
                (Some(a), Some(b)) => Interval::of_bool(a == b),
                _ if l.disjoint(r) => Interval::of_bool(false),
                _ => Interval::BOOL,
            },
            BinOp::Ne => match (l.as_const(), r.as_const()) {
                (Some(a), Some(b)) => Interval::of_bool(a != b),
                _ if l.disjoint(r) => Interval::of_bool(true),
                _ => Interval::BOOL,
            },
            BinOp::Lt => Interval::cmp(l.hi < r.lo, l.lo >= r.hi),
            BinOp::Le => Interval::cmp(l.hi <= r.lo, l.lo > r.hi),
            BinOp::Gt => Interval::cmp(l.lo > r.hi, l.hi <= r.lo),
            BinOp::Ge => Interval::cmp(l.lo >= r.hi, l.hi < r.lo),
            BinOp::And => {
                if l.as_const() == Some(0) || (!l.contains(0) && r.as_const() == Some(0)) {
                    Interval::of_bool(false)
                } else if !l.contains(0) && !r.contains(0) {
                    Interval::of_bool(true)
                } else {
                    Interval::BOOL
                }
            }
            BinOp::Or => {
                if !l.contains(0) || (l.as_const() == Some(0) && !r.contains(0)) {
                    Interval::of_bool(true)
                } else if l.as_const() == Some(0) && r.as_const() == Some(0) {
                    Interval::of_bool(false)
                } else {
                    Interval::BOOL
                }
            }
        }
    }

    /// `[always_true, never_true]` → comparison result interval.
    fn cmp(always: bool, never: bool) -> Interval {
        if always {
            Interval::of_bool(true)
        } else if never {
            Interval::of_bool(false)
        } else {
            Interval::BOOL
        }
    }

    /// Truncating division over a sign-constant divisor sub-range:
    /// quotient extremes occur at endpoint combinations.
    fn div_part(l: Interval, dlo: i64, dhi: i64) -> Option<(i128, i128)> {
        if dlo > dhi {
            return None;
        }
        let quotients = [
            l.lo as i128 / dlo as i128,
            l.lo as i128 / dhi as i128,
            l.hi as i128 / dlo as i128,
            l.hi as i128 / dhi as i128,
        ];
        Some((
            *quotients.iter().min().expect("non-empty"),
            *quotients.iter().max().expect("non-empty"),
        ))
    }

    fn div(l: Interval, r: Interval) -> Interval {
        // The runtime traps on a zero divisor, so values only flow when
        // the divisor is nonzero: split it into its negative and
        // positive parts.
        let neg = Interval::div_part(l, r.lo, r.hi.min(-1));
        let pos = Interval::div_part(l, r.lo.max(1), r.hi);
        match (neg, pos) {
            (None, None) => Interval::BOT, // divisor can only be 0 → always traps
            (Some((lo, hi)), None) | (None, Some((lo, hi))) => Interval::from_exact(lo, hi),
            (Some((nlo, nhi)), Some((plo, phi))) => {
                Interval::from_exact(nlo.min(plo), nhi.max(phi))
            }
        }
    }

    fn rem(l: Interval, r: Interval) -> Interval {
        if r.as_const() == Some(0) {
            return Interval::BOT; // always traps
        }
        // |l % r| < |r| and sign(l % r) = sign(l) (truncating rem). The
        // magnitude bound is max(|r.lo|, |r.hi|) - 1, computed in i128
        // because |i64::MIN| overflows.
        let m = (r.lo as i128).abs().max((r.hi as i128).abs()) - 1;
        let m = m.min(i64::MAX as i128) as i64;
        let bound = Interval::new(if l.lo < 0 { -m } else { 0 }, if l.hi > 0 { m } else { 0 });
        // When |dividend| is below the *smallest* possible divisor
        // magnitude the remainder is the dividend itself, exactly.
        let dmin = if r.lo > 0 {
            r.lo as i128
        } else if r.hi < 0 {
            -(r.hi as i128)
        } else {
            1 // divisor range straddles 0; nonzero values reach magnitude 1
        };
        let small = Interval::from_exact(-(dmin - 1), dmin - 1);
        if l.subset_of(small) {
            l
        } else {
            bound
        }
    }

    /// Refines `self` (the abstract value of the left operand) assuming
    /// `self op other` evaluated to `truth`. Used for branch refinement
    /// on CFG true/false edges; always a sound meet.
    pub fn refine_cmp(self, op: BinOp, other: Interval, truth: bool) -> Interval {
        if self.is_bot() || other.is_bot() {
            return Interval::BOT;
        }
        // Normalize to the op that is *true* on this edge.
        let op = if truth { op } else { negate_cmp(op) };
        let bound = match op {
            BinOp::Eq => other,
            BinOp::Lt => {
                if other.hi == i64::MIN {
                    Interval::BOT
                } else {
                    Interval::new(i64::MIN, other.hi - 1)
                }
            }
            BinOp::Le => Interval::new(i64::MIN, other.hi),
            BinOp::Gt => {
                if other.lo == i64::MAX {
                    Interval::BOT
                } else {
                    Interval::new(other.lo + 1, i64::MAX)
                }
            }
            BinOp::Ge => Interval::new(other.lo, i64::MAX),
            // `!=` only refines when the excluded value is an endpoint.
            BinOp::Ne => match other.as_const() {
                Some(v) if self.lo == v => Interval::new(v.saturating_add(1), self.hi),
                Some(v) if self.hi == v => Interval::new(self.lo, v.saturating_sub(1)),
                _ => return self,
            },
            _ => return self,
        };
        self.meet(bound)
    }
}

/// The comparison that holds when `op` is false.
fn negate_cmp(op: BinOp) -> BinOp {
    match op {
        BinOp::Eq => BinOp::Ne,
        BinOp::Ne => BinOp::Eq,
        BinOp::Lt => BinOp::Ge,
        BinOp::Le => BinOp::Gt,
        BinOp::Gt => BinOp::Le,
        BinOp::Ge => BinOp::Lt,
        other => other,
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_bot() {
            write!(f, "⊥")
        } else if self.is_top() {
            write!(f, "⊤")
        } else if let Some(v) = self.as_const() {
            write!(f, "{v}")
        } else {
            let lo = if self.lo == i64::MIN { "-inf".to_owned() } else { self.lo.to_string() };
            let hi = if self.hi == i64::MAX { "+inf".to_owned() } else { self.hi.to_string() };
            write!(f, "[{lo}, {hi}]")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(lo: i64, hi: i64) -> Interval {
        Interval::new(lo, hi)
    }

    #[test]
    fn lattice_basics() {
        assert!(Interval::BOT.is_bot());
        assert!(Interval::TOP.is_top());
        assert_eq!(iv(3, 3).as_const(), Some(3));
        assert_eq!(iv(1, 5).join(iv(7, 9)), iv(1, 9));
        assert_eq!(iv(1, 5).meet(iv(7, 9)), Interval::BOT);
        assert_eq!(iv(1, 5).meet(iv(4, 9)), iv(4, 5));
        assert!(iv(1, 5).disjoint(iv(6, 9)));
        assert!(!iv(1, 5).disjoint(iv(5, 9)));
        assert!(iv(2, 3).subset_of(iv(1, 5)));
        assert!(Interval::BOT.subset_of(iv(1, 1)));
        assert_eq!(Interval::BOT.join(iv(2, 4)), iv(2, 4));
    }

    #[test]
    fn widening_and_narrowing() {
        // Growing hi jumps to the type bound...
        let w = iv(0, 1).widen(iv(0, 2));
        assert_eq!(w, iv(0, i64::MAX));
        // ...and narrowing recovers the refined bound.
        assert_eq!(w.narrow(iv(0, 9)), iv(0, 9));
        // A finite endpoint never loosens under narrowing.
        assert_eq!(iv(0, 5).narrow(iv(0, 9)), iv(0, 5));
        // Widening is stable when nothing grew.
        assert_eq!(iv(0, 5).widen(iv(1, 4)), iv(0, 5));
    }

    #[test]
    fn arithmetic_is_exact_when_in_range() {
        assert_eq!(Interval::apply_binop(BinOp::Add, iv(1, 2), iv(10, 20)), iv(11, 22));
        assert_eq!(Interval::apply_binop(BinOp::Sub, iv(1, 2), iv(10, 20)), iv(-19, -8));
        assert_eq!(Interval::apply_binop(BinOp::Mul, iv(-2, 3), iv(4, 5)), iv(-10, 15));
        assert_eq!(iv(5, 5).apply_unop(UnOp::Neg), iv(-5, -5));
    }

    #[test]
    fn overflow_widens_to_top() {
        assert!(Interval::apply_binop(BinOp::Add, iv(i64::MAX, i64::MAX), iv(1, 1)).is_top());
        assert!(Interval::apply_binop(BinOp::Mul, Interval::TOP, iv(2, 2)).is_top());
        assert!(iv(i64::MIN, i64::MIN).apply_unop(UnOp::Neg).is_top());
        // i64::MIN / -1 wraps at runtime; the exact value 2^63 escapes.
        assert!(Interval::apply_binop(BinOp::Div, iv(i64::MIN, i64::MIN), iv(-1, -1)).is_top());
    }

    #[test]
    fn division_excludes_trapping_divisor() {
        assert_eq!(Interval::apply_binop(BinOp::Div, iv(10, 20), iv(2, 5)), iv(2, 10));
        // Divisor straddling 0: both sign parts, 0 itself excluded.
        assert_eq!(Interval::apply_binop(BinOp::Div, iv(10, 10), iv(-2, 2)), iv(-10, 10));
        // Constant-zero divisor always traps: no value flows.
        assert!(Interval::apply_binop(BinOp::Div, iv(1, 2), iv(0, 0)).is_bot());
        assert!(Interval::apply_binop(BinOp::Rem, iv(1, 2), iv(0, 0)).is_bot());
    }

    #[test]
    fn remainder_bounds() {
        assert_eq!(Interval::apply_binop(BinOp::Rem, iv(0, 100), iv(10, 10)), iv(0, 9));
        assert_eq!(Interval::apply_binop(BinOp::Rem, iv(-100, -1), iv(10, 10)), iv(-9, 0));
        // Dividend within the modulus: the value passes through.
        assert_eq!(Interval::apply_binop(BinOp::Rem, iv(2, 4), iv(10, 10)), iv(2, 4));
        // i64::MIN % -1 is 0 under wrapping; the bound covers it.
        let r = Interval::apply_binop(BinOp::Rem, iv(i64::MIN, i64::MIN), iv(-1, -1));
        assert!(r.contains(0));
    }

    #[test]
    fn comparisons() {
        assert_eq!(Interval::apply_binop(BinOp::Lt, iv(1, 2), iv(3, 4)), iv(1, 1));
        assert_eq!(Interval::apply_binop(BinOp::Lt, iv(5, 6), iv(3, 4)), iv(0, 0));
        assert_eq!(Interval::apply_binop(BinOp::Lt, iv(1, 4), iv(3, 4)), iv(0, 1));
        assert_eq!(Interval::apply_binop(BinOp::Eq, iv(7, 7), iv(7, 7)), iv(1, 1));
        assert_eq!(Interval::apply_binop(BinOp::Eq, iv(1, 2), iv(3, 4)), iv(0, 0));
        assert_eq!(Interval::apply_binop(BinOp::Ge, iv(3, 9), iv(1, 3)), iv(1, 1));
    }

    #[test]
    fn logic_models_normalized_bools() {
        assert_eq!(Interval::apply_binop(BinOp::And, iv(0, 0), Interval::TOP), iv(0, 0));
        assert_eq!(Interval::apply_binop(BinOp::And, iv(3, 5), iv(1, 1)), iv(1, 1));
        assert_eq!(Interval::apply_binop(BinOp::Or, iv(2, 2), iv(0, 0)), iv(1, 1));
        assert_eq!(Interval::apply_binop(BinOp::Or, iv(0, 0), iv(0, 0)), iv(0, 0));
        assert_eq!(Interval::apply_binop(BinOp::Or, iv(0, 1), iv(0, 1)), Interval::BOOL);
        assert_eq!(iv(0, 0).apply_unop(UnOp::Not), iv(1, 1));
        assert_eq!(iv(4, 9).apply_unop(UnOp::Not), iv(0, 0));
    }

    #[test]
    fn branch_refinement() {
        // x in [0, 100], branch on x < 10.
        let x = iv(0, 100);
        assert_eq!(x.refine_cmp(BinOp::Lt, iv(10, 10), true), iv(0, 9));
        assert_eq!(x.refine_cmp(BinOp::Lt, iv(10, 10), false), iv(10, 100));
        assert_eq!(x.refine_cmp(BinOp::Eq, iv(42, 42), true), iv(42, 42));
        assert_eq!(x.refine_cmp(BinOp::Ne, iv(0, 0), true), iv(1, 100));
        assert_eq!(x.refine_cmp(BinOp::Ge, iv(50, 60), false), iv(0, 59));
        // Refinement against an unknown bound is a no-op, not unsound.
        assert_eq!(x.refine_cmp(BinOp::Lt, Interval::TOP, true), iv(0, 100));
    }
}
