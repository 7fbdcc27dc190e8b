//! Fixture: unsafe discipline. The three unjustified sites must fire;
//! SAFETY-commented and allow-annotated sites must not.

/// Unsafe block without justification.                          [hit]
pub fn missing(v: &[u8]) -> u8 {
    unsafe { *v.get_unchecked(0) }
}

/// Unsafe fn without justification.                             [hit]
pub unsafe fn missing_fn(p: *const u8) -> u8 {
    *p
}

/// Justified block: SAFETY directly above.                   [no hit]
pub fn justified(v: &[u8]) -> u8 {
    // SAFETY: caller guarantees `v` is non-empty.
    unsafe { *v.get_unchecked(0) }
}

/// Same-line SAFETY also counts.                             [no hit]
pub fn inline_justified(v: &[u8]) -> u8 {
    unsafe { *v.get_unchecked(0) } // SAFETY: `v` checked non-empty at entry.
}

/// Allow-annotated escape hatch.                             [no hit]
pub fn annotated(v: &[u8]) -> u8 {
    // etsb: allow(unsafe-safety-comment) -- exercises the annotation escape hatch.
    unsafe { *v.get_unchecked(0) }
}

trait Marker {
    fn tag(&self) -> u8;
}

// SAFETY: Marker has no invariants beyond the trait signature.
unsafe impl Marker for u8 {
    fn tag(&self) -> u8 {
        1
    }
}

/* the next impl is unjustified */
unsafe impl Marker for u16 {
    fn tag(&self) -> u8 {
        2
    }
}
