//! Minimal command-line parsing shared by the experiment binaries.
//!
//! All binaries accept:
//!
//! * `--scale tiny|small|medium|paper` — dataset preset (default `small`);
//! * `--seed <u64>` — master seed (default 42);
//! * `--out <dir>` — CSV output directory (default `results`);
//! * `--threads <n>` — worker threads (default: available parallelism).

use dharma_dataset::Scale;

/// Parsed experiment arguments.
#[derive(Clone, Debug)]
pub struct ExpArgs {
    /// Dataset scale preset.
    pub scale: Scale,
    /// Master seed.
    pub seed: u64,
    /// Output directory for CSV series.
    pub out: String,
    /// Worker thread count (0 = auto).
    pub threads: usize,
}

impl Default for ExpArgs {
    fn default() -> Self {
        ExpArgs {
            scale: Scale::Small,
            seed: 42,
            out: "results".into(),
            threads: 0,
        }
    }
}

impl ExpArgs {
    /// Parses `std::env::args`, exiting with a usage message on errors.
    pub fn parse() -> ExpArgs {
        Self::try_parse(std::env::args().skip(1)).unwrap_or_else(|e| exit_with_usage(&e, ""))
    }

    /// [`ExpArgs::parse`] for the binaries that also have a reduced
    /// `--smoke` run: returns whether `--smoke` appeared, in any position.
    /// The other binaries parse with [`ExpArgs::parse`] and reject it.
    pub fn parse_with_smoke() -> (ExpArgs, bool) {
        Self::try_parse_with_smoke(std::env::args().skip(1))
            .unwrap_or_else(|e| exit_with_usage(&e, " [--smoke]"))
    }

    fn try_parse_with_smoke<I: IntoIterator<Item = String>>(
        args: I,
    ) -> Result<(ExpArgs, bool), String> {
        let (smoke, rest): (Vec<String>, Vec<String>) =
            args.into_iter().partition(|a| a == "--smoke");
        Ok((Self::try_parse(rest)?, !smoke.is_empty()))
    }

    /// Parses from an explicit iterator (testable).
    pub fn try_parse<I: IntoIterator<Item = String>>(args: I) -> Result<ExpArgs, String> {
        let mut out = ExpArgs::default();
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let mut value =
                |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
            match flag.as_str() {
                "--scale" => {
                    let v = value("--scale")?;
                    out.scale = Scale::parse(&v).ok_or_else(|| format!("unknown scale '{v}'"))?;
                }
                "--seed" => {
                    let v = value("--seed")?;
                    out.seed = v.parse().map_err(|_| format!("bad seed '{v}'"))?;
                }
                "--out" => out.out = value("--out")?,
                "--threads" => {
                    let v = value("--threads")?;
                    out.threads = v.parse().map_err(|_| format!("bad thread count '{v}'"))?;
                }
                other => return Err(format!("unknown flag '{other}'")),
            }
        }
        Ok(out)
    }

    /// Builds the worker pool this run should use.
    pub fn pool(&self) -> dharma_par::ThreadPool {
        if self.threads == 0 {
            dharma_par::ThreadPool::with_default_threads()
        } else {
            dharma_par::ThreadPool::new(self.threads)
        }
    }
}

/// Prints `err` and a usage line named after this program (the file name
/// of argv[0]; `extra` lists its own flags), then exits with status 2.
fn exit_with_usage(err: &str, extra: &str) -> ! {
    let argv0 = std::env::args().next().unwrap_or_default();
    let bin = std::path::Path::new(&argv0)
        .file_name()
        .and_then(|f| f.to_str())
        .unwrap_or(&argv0);
    eprintln!("error: {err}");
    eprintln!(
        "usage: {bin}{extra} [--scale tiny|small|medium|paper] [--seed N] [--out DIR] [--threads N]"
    );
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &[&str]) -> Result<ExpArgs, String> {
        ExpArgs::try_parse(s.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let a = parse(&[]).unwrap();
        assert_eq!(a.scale, Scale::Small);
        assert_eq!(a.seed, 42);
        assert_eq!(a.out, "results");
    }

    #[test]
    fn full_flags() {
        let a = parse(&[
            "--scale",
            "tiny",
            "--seed",
            "7",
            "--out",
            "/tmp/x",
            "--threads",
            "2",
        ])
        .unwrap();
        assert_eq!(a.scale, Scale::Tiny);
        assert_eq!(a.seed, 7);
        assert_eq!(a.out, "/tmp/x");
        assert_eq!(a.threads, 2);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse(&["--scale", "gigantic"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--wat"]).is_err());
        assert!(
            parse(&["--smoke"]).is_err(),
            "the paper bins reject --smoke"
        );
    }

    #[test]
    fn smoke_is_found_in_any_position() {
        let split = |s: &[&str]| ExpArgs::try_parse_with_smoke(s.iter().map(|s| s.to_string()));
        for argv in [
            &["--smoke", "--seed", "7"][..],
            &["--seed", "7", "--smoke"],
            &["--out", "x", "--smoke", "--seed", "7"],
        ] {
            let (a, smoke) = split(argv).unwrap();
            assert!(smoke, "{argv:?}");
            assert_eq!(a.seed, 7);
        }
        assert!(!split(&["--seed", "7"]).unwrap().1);
        assert!(
            split(&["--smoke", "--wat"]).is_err(),
            "unknown flags stay errors"
        );
    }
}
