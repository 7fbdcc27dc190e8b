//! Numeric sanitizer: NaN/Inf detection at op and layer boundaries.
//!
//! Enabled by the `sanitize` cargo feature; without it every hook
//! compiles to an empty `#[inline(always)]` function and costs nothing.
//! With it, the first non-finite value produced by a matmul, activation,
//! BatchNorm or loss — or accumulated into a gradient buffer — panics
//! with the layer name, the op and the offending flat index, pointing at
//! the step that diverged instead of the distant place where the NaN is
//! finally observed (usually the loss, many layers later).

/// Panic if `data` holds a NaN or an infinity.
///
/// `layer` names the network layer (`"tensor"` for unattributed core
/// ops); `op` names the operation that produced the buffer.
#[cfg(feature = "sanitize")]
#[inline]
#[allow(clippy::panic, reason = "panicking with diagnostics is the contract")]
pub fn assert_finite(layer: &str, op: &str, data: &[f32]) {
    for (i, &v) in data.iter().enumerate() {
        if !v.is_finite() {
            // Record the hit in the trace before unwinding, so a run that
            // dies mid-sweep still shows where the numbers went bad.
            etsb_obs::obs_event!(
                "sanitize.hit",
                "layer" => layer,
                "op" => op,
                "index" => i,
                "value" => v as f64,
            );
            panic!("sanitize: non-finite value {v} at flat index {i} (layer `{layer}`, op `{op}`)");
        }
    }
}

/// No-op stand-in compiled without the `sanitize` feature.
#[cfg(not(feature = "sanitize"))]
#[inline(always)]
pub fn assert_finite(_layer: &str, _op: &str, _data: &[f32]) {}

/// Whether the sanitizer is compiled in (used by tests and diagnostics).
pub const fn enabled() -> bool {
    cfg!(feature = "sanitize")
}

#[cfg(all(test, feature = "sanitize"))]
mod tests {
    use super::assert_finite;

    #[test]
    fn finite_data_passes() {
        assert_finite("test", "noop", &[0.0, -1.5, f32::MAX]);
    }

    #[test]
    fn nan_panics_with_location() {
        let err = std::panic::catch_unwind(|| {
            assert_finite("lstm-fwd", "matmul", &[1.0, f32::NAN, 2.0]);
        })
        .expect_err("NaN must panic");
        let msg = err.downcast_ref::<String>().expect("panic payload");
        assert!(msg.contains("lstm-fwd"), "layer missing: {msg}");
        assert!(msg.contains("matmul"), "op missing: {msg}");
        assert!(msg.contains("index 1"), "index missing: {msg}");
    }

    #[test]
    fn infinity_panics() {
        assert!(std::panic::catch_unwind(|| {
            assert_finite("head", "loss", &[f32::INFINITY]);
        })
        .is_err());
    }
}
