//! Fixture: the one file `unsafe-confined` allows `unsafe` in.

pub fn documented(p: *const u8) -> u8 {
    // SAFETY: callers pass a pointer to a live byte.
    unsafe { *p }
}

pub fn undocumented(p: *const u8) -> u8 {
    unsafe { *p }
}
