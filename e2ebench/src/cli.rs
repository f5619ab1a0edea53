//! The strict command line: every flag is required exactly once, and an
//! unknown flag, a missing or unparseable value, or an unknown workload
//! is an error — never a silent default.

use crate::workload::Workload;

/// Parsed and checked command-line arguments.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Args {
    /// The workload to run.
    pub workload: Workload,
    /// Input seed: permutes cell order and seeds the `big-code` generator.
    pub seed: u64,
    /// Measurement window in seconds (at least 1).
    pub seconds: u64,
    /// `true` for the traced per-layer run, `false` for the end-to-end run.
    pub trace: bool,
}

/// The usage line printed with every argument error.
pub const USAGE: &str = "usage: adbt-e2ebench --workload <kernels-1v|sim-8v|big-code> \
                         --seed <u64> --seconds <1..=3600> --trace <0|1>";

/// Parses the arguments after the program name.
///
/// # Errors
///
/// A message naming the offending flag or value.
pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let value = match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" => {
                it.next().ok_or_else(|| format!("{flag} needs a value"))?
            }
            other => return Err(format!("unknown argument `{other}`")),
        };
        let duplicate = match flag.as_str() {
            "--workload" => workload
                .replace(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
                .is_some(),
            "--seed" => seed
                .replace(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("--seed: `{value}` is not a u64"))?,
                )
                .is_some(),
            "--seconds" => seconds
                .replace(match value.parse::<u64>() {
                    Ok(s) if (1..=3600).contains(&s) => s,
                    _ => return Err(format!("--seconds: `{value}` is not in 1..=3600")),
                })
                .is_some(),
            _ => trace
                .replace(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: `{value}` is not 0 or 1")),
                })
                .is_some(),
        };
        if duplicate {
            return Err(format!("{flag} given twice"));
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_str(s: &str) -> Result<Args, String> {
        parse(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn accepts_a_full_command_line() {
        let args = parse_str("--workload big-code --seed 7 --seconds 20 --trace 1").unwrap();
        assert_eq!(
            args,
            Args {
                workload: Workload::BigCode,
                seed: 7,
                seconds: 20,
                trace: true,
            }
        );
        // Order does not matter.
        let args = parse_str("--trace 0 --seconds 1 --seed 0 --workload sim-8v").unwrap();
        assert_eq!(args.workload, Workload::Sim8v);
        assert!(!args.trace);
    }

    #[test]
    fn rejects_bad_input_instead_of_defaulting() {
        let base = "--workload kernels-1v --seed 1 --seconds 5 --trace 0";
        assert!(parse_str(base).is_ok());
        for bad in [
            // unknown flag
            format!("{base} --guard 5"),
            // unparseable values
            base.replace("--seed 1", "--seed abc"),
            base.replace("--seed 1", "--seed -1"),
            base.replace("--seconds 5", "--seconds 0"),
            base.replace("--seconds 5", "--seconds 2.5"),
            base.replace("--trace 0", "--trace yes"),
            // unknown workload
            base.replace("kernels-1v", "kernels-4v"),
            base.replace("kernels-1v", "kernels-2v"),
            base.replace("kernels-1v", "fluidanimate"),
            // missing value, missing flag, duplicate flag
            "--workload kernels-1v --seed 1 --seconds 5 --trace".to_string(),
            "--workload kernels-1v --seed 1 --seconds 5".to_string(),
            format!("{base} --seed 2"),
            // positional junk
            format!("{base} extra"),
        ] {
            assert!(parse_str(&bad).is_err(), "accepted `{bad}`");
        }
    }
}
