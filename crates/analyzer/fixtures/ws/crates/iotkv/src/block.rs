//! Fixture: `unsafe` outside the one file allowed it.

#[deny(unsafe_code)]
pub fn words() -> &'static str {
    "unsafe { in a string }" // unsafe in a comment
}

pub fn first(v: &[u8]) -> u8 {
    // SAFETY: a justification does not make this file an allowed site.
    unsafe { *v.get_unchecked(0) }
}

pub fn second(v: &[u8]) -> u8 {
    // lint:allow(unsafe-confined) the suppressed twin
    unsafe { *v.get_unchecked(1) }
}
