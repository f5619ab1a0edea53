//! # adbt-schemes — the paper's atomic-instruction emulation schemes
//!
//! Eight implementations of [`adbt_engine::AtomicScheme`], reproducing
//! every scheme evaluated in *Enhancing Atomic Instruction Emulation for
//! Cross-ISA Dynamic Binary Translation* (CGO 2021):
//!
//! | scheme | atomicity | needs | summary |
//! |---|---|---|---|
//! | [`PicoCas`] | incorrect | — | QEMU-4.1's value-compare CAS; fast, ABA-prone |
//! | [`PicoSt`] | strong | — | per-store locked helper checking a monitor registry |
//! | [`PicoHtm`] | strong\* | HTM | whole LL→SC region in one transaction; livelocks under load |
//! | [`Hst`] | strong | — | inline hash-table store test + stop-the-world SC |
//! | [`HstWeak`] | weak | — | HST without store instrumentation; entry-locked SC |
//! | [`HstHtm`] | strong | HTM | HST with the SC critical section as a transaction |
//! | [`Pst`] | strong | — | page-protection store test; `mprotect`-heavy SC |
//! | [`PstRemap`] | strong | — | PST with SC exclusion via page remapping |
//!
//! \* when it commits; the paper (and this reproduction) shows it fails
//! to make progress beyond ~8 threads.
//!
//! Use [`SchemeKind`] to enumerate, name and construct schemes:
//!
//! ```
//! use adbt_engine::{MachineConfig, MachineCore};
//! use adbt_schemes::SchemeKind;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! for kind in SchemeKind::ALL {
//!     let machine = MachineCore::new(MachineConfig::default(), kind.build())?;
//!     assert_eq!(machine.scheme.name(), kind.name());
//! }
//! # Ok(())
//! # }
//! ```

mod hst;
mod pico_cas;
mod pico_htm;
mod pico_st;
mod pst;

pub use hst::{Hst, HstHtm, HstWeak};
pub use pico_cas::PicoCas;
pub use pico_htm::PicoHtm;
pub use pico_st::PicoSt;
pub use pst::{Pst, PstRemap};

use adbt_engine::{AtomicScheme, Atomicity};
use adbt_mmu::Width;

/// Whether a store of `width` bytes at `addr` touches the monitored word
/// at `monitored` — the store test of PICO-ST's registry and PST's
/// fault handler.
fn overlaps(monitored: u32, addr: u32, width: Width) -> bool {
    addr < monitored.wrapping_add(4) && monitored < addr.wrapping_add(width.bytes())
}

/// A scheme selector: enumeration, naming, metadata and construction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SchemeKind {
    /// QEMU-4.1's PICO-CAS.
    PicoCas,
    /// PICO-ST (helper-based store test).
    PicoSt,
    /// PICO-HTM (LL→SC region transactions).
    PicoHtm,
    /// HST (hash-table store test), the paper's headline scheme.
    Hst,
    /// HST-WEAK (no store instrumentation).
    HstWeak,
    /// HST-HTM (transactional SC critical section).
    HstHtm,
    /// PST (page-protection store test).
    Pst,
    /// PST-REMAP (remap-based SC exclusion).
    PstRemap,
}

impl SchemeKind {
    /// All schemes, in the paper's Table II order.
    pub const ALL: [SchemeKind; 8] = [
        SchemeKind::Hst,
        SchemeKind::HstWeak,
        SchemeKind::HstHtm,
        SchemeKind::Pst,
        SchemeKind::PstRemap,
        SchemeKind::PicoSt,
        SchemeKind::PicoCas,
        SchemeKind::PicoHtm,
    ];

    /// The scheme's canonical name (matches `AtomicScheme::name`).
    pub const fn name(self) -> &'static str {
        match self {
            SchemeKind::PicoCas => "pico-cas",
            SchemeKind::PicoSt => "pico-st",
            SchemeKind::PicoHtm => "pico-htm",
            SchemeKind::Hst => "hst",
            SchemeKind::HstWeak => "hst-weak",
            SchemeKind::HstHtm => "hst-htm",
            SchemeKind::Pst => "pst",
            SchemeKind::PstRemap => "pst-remap",
        }
    }

    /// Parses a scheme name as printed by [`SchemeKind::name`]
    /// (case-insensitive, `_` accepted for `-`).
    pub fn from_name(name: &str) -> Option<SchemeKind> {
        let name = name.to_ascii_lowercase().replace('_', "-");
        SchemeKind::ALL.into_iter().find(|kind| kind.name() == name)
    }

    /// The atomicity class (paper Table II).
    pub const fn atomicity(self) -> Atomicity {
        match self {
            SchemeKind::PicoCas => Atomicity::Incorrect,
            SchemeKind::HstWeak => Atomicity::Weak,
            _ => Atomicity::Strong,
        }
    }

    /// Whether the scheme needs (here: software-emulated) HTM.
    pub const fn requires_htm(self) -> bool {
        matches!(self, SchemeKind::PicoHtm | SchemeKind::HstHtm)
    }

    /// The paper's qualitative speed label (Table II).
    pub const fn speed_label(self) -> &'static str {
        match self {
            SchemeKind::Hst | SchemeKind::HstWeak | SchemeKind::HstHtm => "fast",
            SchemeKind::Pst | SchemeKind::PicoSt => "slow",
            SchemeKind::PstRemap => "varies",
            SchemeKind::PicoCas | SchemeKind::PicoHtm => "fast",
        }
    }

    /// The paper's portability label (Table II).
    pub const fn portability_label(self) -> &'static str {
        if self.requires_htm() {
            "HTM"
        } else {
            "portable"
        }
    }

    /// Constructs a fresh scheme instance ready for
    /// [`adbt_engine::MachineCore::new`].
    pub fn build(self) -> Box<dyn AtomicScheme> {
        match self {
            SchemeKind::PicoCas => Box::new(PicoCas::new()),
            SchemeKind::PicoSt => Box::new(PicoSt::new()),
            SchemeKind::PicoHtm => Box::new(PicoHtm::new()),
            SchemeKind::Hst => Box::new(Hst::new()),
            SchemeKind::HstWeak => Box::new(HstWeak::new()),
            SchemeKind::HstHtm => Box::new(HstHtm::new()),
            SchemeKind::Pst => Box::new(Pst::new()),
            SchemeKind::PstRemap => Box::new(PstRemap::new()),
        }
    }
}

impl std::fmt::Display for SchemeKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for kind in SchemeKind::ALL {
            assert_eq!(SchemeKind::from_name(kind.name()), Some(kind));
            assert_eq!(
                SchemeKind::from_name(&kind.name().to_uppercase()),
                Some(kind)
            );
        }
        assert_eq!(SchemeKind::from_name("hst_weak"), Some(SchemeKind::HstWeak));
        assert_eq!(SchemeKind::from_name("nope"), None);
    }

    #[test]
    fn metadata_matches_built_scheme() {
        for kind in SchemeKind::ALL {
            let scheme = kind.build();
            assert_eq!(scheme.name(), kind.name());
            assert_eq!(scheme.atomicity(), kind.atomicity());
            assert_eq!(scheme.requires_htm(), kind.requires_htm());
        }
    }

    #[test]
    fn overlaps_matches_the_monitored_word_footprint() {
        // Monitored word [0x100, 0x104).
        assert!(overlaps(0x100, 0x100, Width::Word));
        assert!(overlaps(0x100, 0x103, Width::Byte));
        assert!(overlaps(0x100, 0xfe, Width::Word));
        assert!(overlaps(0x100, 0xff, Width::Half));
        assert!(!overlaps(0x100, 0x104, Width::Word));
        assert!(!overlaps(0x100, 0x104, Width::Byte));
        assert!(!overlaps(0x100, 0xfe, Width::Half));
        assert!(!overlaps(0x100, 0xff, Width::Byte));
    }

    #[test]
    fn table_ii_classification() {
        assert_eq!(SchemeKind::PicoCas.atomicity(), Atomicity::Incorrect);
        assert_eq!(SchemeKind::HstWeak.atomicity(), Atomicity::Weak);
        assert_eq!(SchemeKind::Hst.atomicity(), Atomicity::Strong);
        assert!(SchemeKind::HstHtm.requires_htm());
        assert!(!SchemeKind::Pst.requires_htm());
    }
}
