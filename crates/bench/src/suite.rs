//! Shared experiment infrastructure: the six evaluated policies, the
//! standard traces, and run orchestration used by every figure binary.

use rainbowcake_core::policy::Policy;
use rainbowcake_core::profile::Catalog;
use rainbowcake_core::rainbow::{RainbowCake, RainbowConfig, RainbowVariant};
use rainbowcake_metrics::RunReport;
use rainbowcake_policies::{FaasCache, Histogram, OpenWhiskDefault, Pagurus, Seuss};
use rainbowcake_sim::{run, SimConfig};
use rainbowcake_trace::azure::{azure_like_trace, AzureConfig};
use rainbowcake_trace::Trace;
use rainbowcake_workloads::paper_catalog;

/// The six policies of §7.1, in the paper's presentation order.
pub const BASELINE_NAMES: [&str; 6] = [
    "OpenWhisk",
    "Histogram",
    "FaasCache",
    "SEUSS",
    "Pagurus",
    "RainbowCake",
];

/// Instantiates a policy by its §7.1 name.
///
/// # Panics
///
/// Panics on an unknown name or an invalid RainbowCake configuration
/// (which cannot happen for the defaults used here).
pub fn make_policy(name: &str, catalog: &Catalog) -> Box<dyn Policy> {
    match name {
        "OpenWhisk" => Box::new(OpenWhiskDefault::new()),
        "Histogram" => Box::new(Histogram::new(catalog.len())),
        "FaasCache" => Box::new(FaasCache::new()),
        "SEUSS" => Box::new(Seuss::new()),
        "Pagurus" => Box::new(Pagurus::new(catalog.len())),
        "RainbowCake" => {
            Box::new(RainbowCake::with_defaults(catalog).expect("default config is valid"))
        }
        "RainbowCake-NoSharing" => Box::new(
            RainbowCake::new(
                catalog,
                RainbowConfig {
                    variant: RainbowVariant::NoSharing,
                    ..RainbowConfig::default()
                },
            )
            .expect("ablation config is valid"),
        ),
        "RainbowCake-NoLayers" => Box::new(
            RainbowCake::new(
                catalog,
                RainbowConfig {
                    variant: RainbowVariant::NoLayers,
                    ..RainbowConfig::default()
                },
            )
            .expect("ablation config is valid"),
        ),
        other => panic!("unknown policy {other}"),
    }
}

/// The standard evaluation setup: the 20-function catalog, the 8-hour
/// Azure-like trace, and the 240 GB worker.
pub struct Testbed {
    /// The 20 paper functions.
    pub catalog: Catalog,
    /// The headline trace.
    pub trace: Trace,
    /// Worker configuration.
    pub config: SimConfig,
}

impl Testbed {
    /// The full 8-hour evaluation setup of §7.2.
    pub fn paper_8h() -> Self {
        let catalog = paper_catalog();
        let trace = azure_like_trace(catalog.len(), &AzureConfig::default());
        Testbed {
            catalog,
            trace,
            config: SimConfig::default(),
        }
    }

    /// A shortened setup (for quick experiments and benches).
    pub fn paper_hours(hours: u64) -> Self {
        let catalog = paper_catalog();
        let trace = azure_like_trace(
            catalog.len(),
            &AzureConfig {
                hours,
                ..AzureConfig::default()
            },
        );
        Testbed {
            catalog,
            trace,
            config: SimConfig::default(),
        }
    }

    /// Runs one named policy on this testbed.
    pub fn run(&self, name: &str) -> RunReport {
        let mut policy = make_policy(name, &self.catalog);
        run(
            &self.catalog,
            policy.as_mut(),
            self.trace.iter().copied(),
            self.trace.horizon(),
            &self.config,
            None,
        )
    }

    /// Runs all six §7.1 policies, fanned out across threads; reports
    /// come back in `BASELINE_NAMES` order and are bit-identical to
    /// [`Testbed::run_all_sequential`].
    pub fn run_all(&self) -> Vec<RunReport> {
        crate::parallel::run_policies(&self.catalog, &self.trace, &self.config, &BASELINE_NAMES)
    }

    /// Runs all six §7.1 policies in order on the calling thread (the
    /// reference implementation `run_all` must match exactly).
    pub fn run_all_sequential(&self) -> Vec<RunReport> {
        BASELINE_NAMES.iter().map(|n| self.run(n)).collect()
    }
}

/// Formats a ratio as the paper does ("reduces X by 68%").
pub fn reduction_pct(baseline: f64, ours: f64) -> f64 {
    if baseline <= 0.0 {
        return 0.0;
    }
    (1.0 - ours / baseline) * 100.0
}

/// Column names of the headline per-policy table ([`headline_rows`]).
pub const HEADLINE_COLUMNS: [&str; 8] = [
    "policy",
    "fn_avg_st_ms",
    "fn_avg_e2e_s",
    "inv_avg_st_ms",
    "p99_e2e_s",
    "total_st_s",
    "waste_GBs",
    "cold",
];

/// The headline per-policy table behind Figs. 3, 6, 7 and 8, one row
/// per report, in [`HEADLINE_COLUMNS`] order. The reports must keep
/// their records (no streaming metrics), which the p99 needs.
pub fn headline_rows(reports: &[RunReport]) -> Vec<Vec<String>> {
    reports
        .iter()
        .map(|r| {
            vec![
                r.policy.clone(),
                format!("{:.0}", fn_avg_startup_ms(r)),
                format!("{:.2}", fn_avg_e2e_s(r)),
                format!("{:.1}", r.avg_startup().as_millis_f64()),
                format!(
                    "{:.2}",
                    r.e2e_percentile(99.0)
                        .expect("the headline reports keep their records")
                        .as_secs_f64()
                ),
                format!("{:.0}", r.total_startup().as_secs_f64()),
                format!("{:.0}", r.total_waste().value()),
                format!("{}", r.cold_starts()),
            ]
        })
        .collect()
}

/// Renders a simple aligned table: the header, a dashed rule and the
/// rows, one newline-terminated line each.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let mut line = |cells: Vec<String>| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!("{:<w$}  ", c, w = widths[i]));
        }
        out.push_str(s.trim_end());
        out.push('\n');
    };
    line(headers.iter().map(|s| s.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
    out
}

/// Prints a simple aligned table ([`render_table`]).
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    print!("{}", render_table(headers, rows));
}

/// Mean of per-function average startup latencies in milliseconds — the
/// quantity behind Fig. 6's headline "reduces average startup by X%".
pub fn fn_avg_startup_ms(report: &RunReport) -> f64 {
    let rows = report.per_function();
    if rows.is_empty() {
        return 0.0;
    }
    rows.iter()
        .map(|s| s.avg_startup.as_millis_f64())
        .sum::<f64>()
        / rows.len() as f64
}

/// Mean of per-function average end-to-end latencies in seconds.
pub fn fn_avg_e2e_s(report: &RunReport) -> f64 {
    let rows = report.per_function();
    if rows.is_empty() {
        return 0.0;
    }
    rows.iter().map(|s| s.avg_e2e.as_secs_f64()).sum::<f64>() / rows.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_baselines_instantiate() {
        let catalog = paper_catalog();
        for name in BASELINE_NAMES {
            let p = make_policy(name, &catalog);
            assert_eq!(p.name(), name);
        }
        // Ablations too.
        make_policy("RainbowCake-NoSharing", &catalog);
        make_policy("RainbowCake-NoLayers", &catalog);
    }

    #[test]
    #[should_panic(expected = "unknown policy")]
    fn unknown_policy_panics() {
        make_policy("Nonsense", &paper_catalog());
    }

    #[test]
    fn reduction_math() {
        assert_eq!(reduction_pct(100.0, 32.0), 68.0);
        assert_eq!(reduction_pct(0.0, 5.0), 0.0);
    }

    #[test]
    fn short_testbed_runs_all_policies() {
        let bed = Testbed::paper_hours(1);
        let reports = bed.run_all();
        assert_eq!(reports.len(), 6);
        for r in &reports {
            assert!(
                r.records.len() > 100,
                "{} completed only {} invocations",
                r.policy,
                r.records.len()
            );
        }
    }
}
