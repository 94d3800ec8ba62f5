//! Shared-mutable-state zoo: one site per TL203 class, plus a
//! test-region decoy the audit must skip.

/// Writable global (TL203: `static mut`).
pub static mut TICK_COUNT: u64 = 0;

/// Interior-mutable global (TL203: `Atomic*` static).
pub static DROPS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

thread_local! {
    /// Per-thread scratch (TL203: `thread_local!`).
    pub static SCRATCH: u64 = 0;
}

/// Non-atomic shared ownership (TL203: `Rc`).
pub fn share(_v: u64) -> std::rc::Rc<u64> {
    Default::default()
}

/// Single-thread interior mutability (TL203: `RefCell`).
pub struct Scratch {
    /// Mutated through a shared reference.
    pub cache: std::cell::RefCell<u64>,
}

/// Single-thread interior mutability (TL203: `Cell`).
pub struct Flag {
    /// Flipped through a shared reference.
    pub dirty: std::cell::Cell<bool>,
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_region_sites_are_not_audited() {
        let c = std::cell::RefCell::new(0u64);
        *c.borrow_mut() += 1;
        assert_eq!(*c.borrow(), 1);
    }
}
