//! Fixture: host-libm tanh calls in library code. The two marked sites
//! must fire; the test-module comparison and the annotated site must
//! not.

/// Per-element libm tanh on an exact path.                      [hit]
pub fn activate(xs: &mut [f32]) {
    for x in xs {
        *x = x.tanh();
    }
}

/// Method-call syntax on an expression.                          [hit]
pub fn gate(z: f32, b: f32) -> f32 {
    (z + b).tanh()
}

/// The in-repo port is a different name and stays silent.     [no hit]
pub fn ported(xs: &mut [f32]) {
    etsb_tensor::simd::tanh_exact(xs);
}

/// Annotated escape hatch.                                      [no hit]
pub fn reference(x: f32) -> f32 {
    // etsb: allow(libm-tanh) -- documentation example of the host value.
    x.tanh()
}

#[cfg(test)]
mod tests {
    #[test]
    fn port_matches_libm() {
        let mut y = [0.5_f32];
        super::ported(&mut y);
        assert_eq!(y[0], 0.5_f32.tanh());
    }
}
