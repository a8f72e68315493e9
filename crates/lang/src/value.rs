//! Runtime values.
//!
//! The language has two value shapes: 64-bit integers and fixed-size
//! integer arrays. Logs (prelogs/postlogs, §5.1) store snapshots of these.

use std::fmt;

/// A runtime value: a scalar integer or a fixed-size array.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Value {
    /// A 64-bit signed integer.
    Int(i64),
    /// A fixed-size array of integers.
    Array(Vec<i64>),
}

impl Value {
    /// A fresh zero value of the right shape for a declaration.
    pub fn zero(size: Option<usize>) -> Value {
        match size {
            None => Value::Int(0),
            Some(n) => Value::Array(vec![0; n]),
        }
    }

    /// Returns the scalar integer, if this is one.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(n) => Some(*n),
            Value::Array(_) => None,
        }
    }

    /// Returns the array contents, if this is an array.
    pub fn as_array(&self) -> Option<&[i64]> {
        match self {
            Value::Int(_) => None,
            Value::Array(a) => Some(a),
        }
    }

    /// Whether this value is "truthy" (non-zero scalar).
    ///
    /// Arrays are never truthy; the validator prevents them from reaching
    /// boolean positions.
    pub fn is_truthy(&self) -> bool {
        matches!(self, Value::Int(n) if *n != 0)
    }

    /// Approximate size of this value in bytes when logged, used by the
    /// log-volume accounting of experiment E2.
    pub fn logged_size(&self) -> usize {
        match self {
            Value::Int(_) => 8,
            Value::Array(a) => 8 * a.len(),
        }
    }
}

impl Default for Value {
    fn default() -> Self {
        Value::Int(0)
    }
}

impl From<i64> for Value {
    fn from(n: i64) -> Self {
        Value::Int(n)
    }
}

impl From<Vec<i64>> for Value {
    fn from(a: Vec<i64>) -> Self {
        Value::Array(a)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(n) => write!(f, "{n}"),
            Value::Array(a) => {
                write!(f, "[")?;
                for (i, v) in a.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_shapes() {
        assert_eq!(Value::zero(None), Value::Int(0));
        assert_eq!(Value::zero(Some(3)), Value::Array(vec![0, 0, 0]));
    }

    #[test]
    fn truthiness() {
        assert!(Value::Int(1).is_truthy());
        assert!(Value::Int(-5).is_truthy());
        assert!(!Value::Int(0).is_truthy());
        assert!(!Value::Array(vec![1]).is_truthy());
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Int(-7).to_string(), "-7");
        assert_eq!(Value::Array(vec![1, 2]).to_string(), "[1, 2]");
        assert_eq!(Value::Array(vec![]).to_string(), "[]");
    }

    #[test]
    fn logged_size_scales_with_shape() {
        assert_eq!(Value::Int(0).logged_size(), 8);
        assert_eq!(Value::Array(vec![0; 10]).logged_size(), 80);
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(3), Value::Int(3));
        assert_eq!(Value::from(vec![1]), Value::Array(vec![1]));
        assert_eq!(Value::Int(9).as_int(), Some(9));
        assert_eq!(Value::Array(vec![2]).as_array(), Some(&[2][..]));
        assert_eq!(Value::Array(vec![]).as_int(), None);
    }
}
