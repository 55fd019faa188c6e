//! Minimal complex arithmetic for state-vector simulation.
//!
//! A ~100-line internal module instead of a `num-complex` dependency (see
//! DESIGN.md's dependency policy): the simulator needs exactly the
//! operations below and nothing else.

use std::fmt;
use std::ops::{Add, AddAssign, Mul, Neg, Sub};

/// A double-precision complex number.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

/// Shorthand constructor.
#[must_use]
pub const fn c(re: f64, im: f64) -> Complex {
    Complex { re, im }
}

impl Complex {
    /// The additive identity.
    pub const ZERO: Complex = c(0.0, 0.0);
    /// The multiplicative identity.
    pub const ONE: Complex = c(1.0, 0.0);
    /// The imaginary unit.
    pub const I: Complex = c(0.0, 1.0);

    /// `e^{iθ}` on the unit circle.
    #[must_use]
    pub fn from_angle(theta: f64) -> Self {
        c(theta.cos(), theta.sin())
    }

    /// Squared magnitude `|z|²` (a measurement probability for amplitudes).
    #[must_use]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Scales by a real factor.
    #[must_use]
    pub fn scale(self, k: f64) -> Self {
        c(self.re * k, self.im * k)
    }
}

impl Add for Complex {
    type Output = Complex;
    fn add(self, rhs: Complex) -> Complex {
        c(self.re + rhs.re, self.im + rhs.im)
    }
}

impl AddAssign for Complex {
    fn add_assign(&mut self, rhs: Complex) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for Complex {
    type Output = Complex;
    fn sub(self, rhs: Complex) -> Complex {
        c(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex {
    type Output = Complex;
    fn mul(self, rhs: Complex) -> Complex {
        c(self.re * rhs.re - self.im * rhs.im, self.re * rhs.im + self.im * rhs.re)
    }
}

impl Neg for Complex {
    type Output = Complex;
    fn neg(self) -> Complex {
        c(-self.re, -self.im)
    }
}

impl fmt::Display for Complex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_identities() {
        let z = c(2.0, -3.0);
        assert_eq!(z + Complex::ZERO, z);
        assert_eq!(z * Complex::ONE, z);
        assert_eq!(Complex::I * Complex::I, c(-1.0, 0.0));
        assert_eq!(-z, c(-2.0, 3.0));
        assert_eq!(z - z, Complex::ZERO);
    }

    #[test]
    fn multiplication_is_complex() {
        let a = c(1.0, 2.0);
        let b = c(3.0, -1.0);
        assert_eq!(a * b, c(5.0, 5.0));
    }

    #[test]
    fn norm_sqr_is_the_squared_modulus() {
        let z = c(3.0, 4.0);
        assert_eq!(z.norm_sqr(), 25.0);
    }

    #[test]
    fn from_angle_lies_on_unit_circle() {
        for k in 0..8 {
            let z = Complex::from_angle(k as f64 * std::f64::consts::FRAC_PI_4);
            assert!((z.norm_sqr() - 1.0).abs() < 1e-12);
        }
        let z = Complex::from_angle(std::f64::consts::PI);
        assert!((z.re + 1.0).abs() < 1e-12);
    }

    #[test]
    fn display_formats_sign() {
        assert_eq!(c(1.0, 2.0).to_string(), "1+2i");
        assert_eq!(c(1.0, -2.0).to_string(), "1-2i");
    }
}
