use std::error::Error as StdError;
use std::fmt;

/// Errors surfaced by the `adbt` facade.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Error {
    /// The assembler rejected a guest program.
    Asm(adbt_isa::AsmError),
    /// Machine construction failed (invalid memory configuration, …).
    Machine(String),
    /// An assembled image cannot be loaded where it was asked to go.
    Load(String),
    /// A guest address was invalid for the requested host-side access.
    Memory(adbt_mmu::PageFault),
    /// A named symbol was missing from the loaded image.
    MissingSymbol(String),
    /// No program image has been loaded yet.
    NoImage,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Asm(e) => write!(f, "assembly error: {e}"),
            Error::Machine(msg) => write!(f, "machine construction failed: {msg}"),
            Error::Load(msg) => write!(f, "cannot load image: {msg}"),
            Error::Memory(fault) => write!(f, "host-side memory access failed: {fault}"),
            Error::MissingSymbol(name) => write!(f, "symbol `{name}` not found in image"),
            Error::NoImage => f.write_str("no program image loaded"),
        }
    }
}

impl StdError for Error {
    fn source(&self) -> Option<&(dyn StdError + 'static)> {
        match self {
            Error::Asm(e) => Some(e),
            Error::Memory(e) => Some(e),
            _ => None,
        }
    }
}

impl From<adbt_isa::AsmError> for Error {
    fn from(e: adbt_isa::AsmError) -> Error {
        Error::Asm(e)
    }
}

impl From<adbt_mmu::PageFault> for Error {
    fn from(e: adbt_mmu::PageFault) -> Error {
        Error::Memory(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        let asm = Error::from(adbt_isa::AsmError {
            line: 3,
            message: "bad".into(),
        });
        assert!(asm.to_string().contains("line 3"));
        assert!(Error::NoImage.to_string().contains("no program"));
        assert!(Error::Load("base 0x1".into())
            .to_string()
            .starts_with("cannot load image: base 0x1"));
        assert!(Error::MissingSymbol("top".into())
            .to_string()
            .contains("`top`"));
    }
}
