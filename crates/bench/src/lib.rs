//! # fv-bench
//!
//! The benchmark harness: the `exp` binary runs every table/figure of the
//! paper's evaluation (`exp <name>`, `exp all`, `exp --list`; DESIGN.md §4
//! is the index), `exp_runtime`, `exp_brick` and `exp_serve` write the JSON
//! that `scripts/ci.sh` gates on, and Criterion benches cover the
//! timing-only artifacts.
//!
//! Every binary accepts the same flags:
//!
//! * `--tiny` (default) / `--small` / `--medium` / `--full` — grid scale
//!   (the `--full` scale reproduces the paper's published resolutions;
//!   expect long runtimes on CPU-only hosts);
//! * `--seed N` — RNG seed (default 42);
//! * `--dataset NAME` — restrict to one dataset where applicable.
//!
//! Output is an aligned text table whose rows mirror what the paper plots,
//! so "regenerating Fig. 9" means diffing shapes: who wins, by how much,
//! where the crossovers sit.

use fv_sims::{DatasetSpec, Scale, Simulation};
use fillvoid_core::pipeline::PipelineConfig;

/// Common experiment options parsed from the command line.
#[derive(Debug, Clone)]
pub struct ExpOpts {
    /// Grid scale for every dataset in the run.
    pub scale: Scale,
    /// Base RNG seed.
    pub seed: u64,
    /// Restrict to one dataset (None = all three).
    pub dataset: Option<String>,
    /// Also write machine-readable CSV next to the text table.
    pub csv: Option<std::path::PathBuf>,
}

impl Default for ExpOpts {
    fn default() -> Self {
        Self {
            scale: Scale::Tiny,
            seed: 42,
            dataset: None,
            csv: None,
        }
    }
}

impl ExpOpts {
    /// Parse from `std::env::args`, exiting with usage help on `--help`.
    pub fn from_args() -> Self {
        Self::parse(std::env::args().skip(1))
    }

    /// Parse flags from `args` (the program name already skipped), exiting
    /// with usage help on `--help`.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Self {
        let mut opts = Self::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--tiny" => opts.scale = Scale::Tiny,
                "--small" => opts.scale = Scale::Small,
                "--medium" => opts.scale = Scale::Medium,
                "--full" => opts.scale = Scale::Paper,
                "--seed" => {
                    let v = args.next().unwrap_or_default();
                    opts.seed = v.parse().unwrap_or_else(|_| {
                        eprintln!("--seed expects an integer, got {v:?}");
                        std::process::exit(2);
                    });
                }
                "--dataset" => {
                    opts.dataset = Some(args.next().unwrap_or_default());
                }
                "--csv" => {
                    let v = args.next().unwrap_or_default();
                    if v.is_empty() {
                        eprintln!("--csv expects an output path");
                        std::process::exit(2);
                    }
                    opts.csv = Some(std::path::PathBuf::from(v));
                }
                "--help" | "-h" => {
                    eprintln!(
                        "flags: [--tiny|--small|--medium|--full] [--seed N] [--dataset isabel|combustion|ionization] [--csv FILE]"
                    );
                    std::process::exit(0);
                }
                other => {
                    eprintln!("unknown flag {other:?} (try --help)");
                    std::process::exit(2);
                }
            }
        }
        opts
    }

    /// Datasets selected by this run.
    pub fn datasets(&self) -> Vec<&'static DatasetSpec> {
        match &self.dataset {
            Some(name) => match DatasetSpec::by_name(name) {
                Some(spec) => vec![spec],
                None => {
                    eprintln!("unknown dataset {name:?}");
                    std::process::exit(2);
                }
            },
            None => fv_sims::registry::DATASETS.iter().collect(),
        }
    }

    /// Instantiate one dataset's surrogate at the selected scale.
    pub fn build(&self, spec: &DatasetSpec) -> Box<dyn Simulation> {
        spec.build(self.scale, self.seed)
    }

    /// A pipeline configuration proportionate to the selected scale: the
    /// paper's exact configuration at `--full`, progressively lighter
    /// stacks below so single-core runs stay interactive.
    pub fn pipeline_config(&self) -> PipelineConfig {
        match self.scale {
            Scale::Paper => PipelineConfig::paper(),
            Scale::Medium => PipelineConfig {
                hidden: vec![256, 128, 64, 32, 16],
                trainer: fv_nn::TrainerConfig {
                    epochs: 120,
                    ..PipelineConfig::paper().trainer
                },
                ..PipelineConfig::paper()
            },
            Scale::Small => PipelineConfig::bench_default(),
            Scale::Tiny => PipelineConfig {
                hidden: vec![64, 32, 16],
                trainer: fv_nn::TrainerConfig {
                    epochs: 40,
                    learning_rate: 2e-3,
                    ..PipelineConfig::paper().trainer
                },
                ..PipelineConfig::bench_default()
            },
        }
    }

    /// The sampling-fraction axis of Figs. 7–10 and 13–14, matching the
    /// paper's 0.1%–5% sweep.
    pub fn fraction_axis(&self) -> Vec<f64> {
        vec![0.001, 0.005, 0.01, 0.02, 0.03, 0.04, 0.05]
    }
}

/// Format a fraction as the paper writes it ("0.1%", "5%").
pub fn pct(fraction: f64) -> String {
    // Round to 4 decimals first so binary fractions like 0.001 don't print
    // as 0.10000000000000001%.
    let p = (fraction * 1e6).round() / 1e4;
    if p == p.trunc() {
        format!("{}%", p as i64)
    } else {
        format!("{p}%")
    }
}

/// Format an SNR value for the tables.
pub fn db(v: f64) -> String {
    if v.is_nan() {
        "n/a".to_string()
    } else if v.is_infinite() {
        "inf".to_string()
    } else {
        format!("{v:.2}")
    }
}

/// Format seconds with ms precision.
pub fn secs(v: f64) -> String {
    format!("{v:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let o = ExpOpts::default();
        assert_eq!(o.scale, Scale::Tiny);
        assert_eq!(o.seed, 42);
        assert_eq!(o.datasets().len(), 3);
        assert!(o.csv.is_none());
    }

    #[test]
    fn formatting() {
        assert_eq!(pct(0.001), "0.1%");
        assert_eq!(pct(0.05), "5%");
        assert_eq!(db(f64::NAN), "n/a");
        assert_eq!(db(27.346), "27.35");
        assert_eq!(db(27.344), "27.34");
        assert_eq!(db(f64::INFINITY), "inf");
        assert_eq!(secs(0.12345), "0.123");
    }

    #[test]
    fn pipeline_config_scales() {
        let mut o = ExpOpts {
            scale: Scale::Paper,
            ..Default::default()
        };
        assert_eq!(o.pipeline_config().hidden, vec![512, 256, 128, 64, 16]);
        o.scale = Scale::Tiny;
        assert_eq!(o.pipeline_config().hidden.len(), 3);
    }

    #[test]
    fn fraction_axis_is_ascending_and_in_paper_range() {
        let axis = ExpOpts::default().fraction_axis();
        assert!(axis.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(axis[0], 0.001);
        assert_eq!(*axis.last().unwrap(), 0.05);
    }
}
