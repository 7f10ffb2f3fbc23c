//! Report rendering: aligned text tables or CSV.

use grococa_core::{Report, Scheme};

/// The columns every output mode emits, in order.
pub const COLUMNS: [&str; 9] = [
    "scheme",
    "x",
    "latency_ms",
    "lch_pct",
    "gch_pct",
    "srv_pct",
    "power_per_gch_uws",
    "power_per_req_uws",
    "completed",
];

/// What one row renders: the completed run's report, or an explicit
/// failure marker for a sweep cell quarantined under `--keep-going`.
#[derive(Debug, Clone, Copy)]
pub enum RowOutcome {
    /// The run completed; render its metrics.
    Report(Report),
    /// The cell failed past its retry budget; render a
    /// `FAILED(<reason> x<attempts>)` row naming the quarantine reason
    /// (`panic`, `deadline`, `oom`, `drain-kill`) and the attempt count.
    Failed {
        /// The quarantine reason label ([`grococa_par::FailureKind::label`]).
        reason: &'static str,
        /// Attempts actually made before quarantine.
        attempts: u32,
    },
}

/// One output row: a scheme, an optional sweep coordinate, and its
/// outcome.
#[derive(Debug, Clone, Copy)]
pub struct Row {
    /// Scheme of this run.
    pub scheme: Scheme,
    /// Swept parameter value (`None` for single runs).
    pub x: Option<f64>,
    /// The run's outcome.
    pub outcome: RowOutcome,
}

impl Row {
    /// A row for a completed run.
    pub fn ok(scheme: Scheme, x: Option<f64>, report: Report) -> Row {
        Row {
            scheme,
            x,
            outcome: RowOutcome::Report(report),
        }
    }

    /// A row for a quarantined (failed) sweep cell.
    pub fn failed(scheme: Scheme, x: Option<f64>, reason: &'static str, attempts: u32) -> Row {
        Row {
            scheme,
            x,
            outcome: RowOutcome::Failed { reason, attempts },
        }
    }
}

fn fields(row: &Row) -> Vec<String> {
    let mut out = vec![
        row.scheme.label().to_string(),
        row.x.map(|x| format!("{x}")).unwrap_or_default(),
    ];
    match &row.outcome {
        RowOutcome::Failed { reason, attempts } => {
            out.push(format!("FAILED({reason} x{attempts})"));
            out.extend((3..COLUMNS.len()).map(|_| String::new()));
        }
        RowOutcome::Report(r) => {
            let power_gch = if r.power_per_gch_uws.is_finite() {
                format!("{:.1}", r.power_per_gch_uws)
            } else {
                String::new()
            };
            out.extend([
                format!("{:.3}", r.access_latency_ms),
                format!("{:.2}", r.local_hit_ratio_pct),
                format!("{:.2}", r.global_hit_ratio_pct),
                format!("{:.2}", r.server_request_ratio_pct),
                power_gch,
                format!("{:.1}", r.power_per_request_uws),
                format!("{}", r.completed),
            ]);
        }
    }
    out
}

/// Renders rows as CSV with a header line.
///
/// # Examples
///
/// ```
/// use grococa_cli::output::{to_csv, Row};
/// use grococa_core::{Scheme, SimConfig, Simulation};
///
/// let mut cfg = SimConfig::for_scheme(Scheme::Conventional);
/// cfg.num_clients = 10;
/// cfg.requests_per_mh = 20;
/// let report = Simulation::new(cfg).run().report;
/// let csv = to_csv(&[Row::ok(Scheme::Conventional, None, report)]);
/// assert!(csv.starts_with("scheme,x,latency_ms"));
/// assert_eq!(csv.lines().count(), 2);
/// ```
pub fn to_csv(rows: &[Row]) -> String {
    let mut out = COLUMNS.join(",");
    out.push('\n');
    for row in rows {
        out.push_str(&fields(row).join(","));
        out.push('\n');
    }
    out
}

/// Renders rows as an aligned text table.
pub fn to_table(rows: &[Row]) -> String {
    let header: Vec<String> = COLUMNS.iter().map(|c| c.to_string()).collect();
    let mut body: Vec<Vec<String>> = vec![header];
    body.extend(rows.iter().map(fields));
    let widths: Vec<usize> = (0..COLUMNS.len())
        .map(|c| body.iter().map(|r| r[c].len()).max().unwrap_or(0))
        .collect();
    let mut out = String::new();
    for row in &body {
        for (c, cell) in row.iter().enumerate() {
            if c > 0 {
                out.push_str("  ");
            }
            out.push_str(&format!("{cell:>width$}", width = widths[c]));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use grococa_core::{SimConfig, Simulation};

    fn sample_row(x: Option<f64>) -> Row {
        let cfg = SimConfig {
            num_clients: 10,
            requests_per_mh: 15,
            ..SimConfig::for_scheme(Scheme::Coca)
        };
        Row::ok(Scheme::Coca, x, Simulation::new(cfg).run().report)
    }

    #[test]
    fn csv_has_header_and_rows() {
        let csv = to_csv(&[sample_row(Some(1.5)), sample_row(Some(2.0))]);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0].split(',').count(), COLUMNS.len());
        assert!(lines[1].starts_with("COCA,1.5,"));
        assert!(lines[2].starts_with("COCA,2,"));
    }

    #[test]
    fn csv_empty_x_for_single_runs() {
        let csv = to_csv(&[sample_row(None)]);
        let second_field = csv.lines().nth(1).unwrap().split(',').nth(1).unwrap();
        assert_eq!(second_field, "");
    }

    #[test]
    fn table_aligns_columns() {
        let table = to_table(&[sample_row(Some(10.0))]);
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 2);
        // The header and body line have identical widths.
        assert_eq!(lines[0].len(), lines[1].len());
        assert!(lines[0].contains("latency_ms"));
    }

    #[test]
    fn failed_rows_render_reason_and_attempts() {
        let csv = to_csv(&[
            sample_row(Some(1.0)),
            Row::failed(Scheme::GroCoca, Some(2.0), "panic", 2),
        ]);
        let failed_line = csv.lines().nth(2).unwrap();
        assert_eq!(
            failed_line,
            format!("GC,2,FAILED(panic x2){}", ",".repeat(COLUMNS.len() - 3))
        );
        let table = to_table(&[
            sample_row(Some(1.0)),
            Row::failed(Scheme::GroCoca, Some(2.0), "deadline", 1),
        ]);
        assert!(table
            .lines()
            .nth(2)
            .unwrap()
            .contains("FAILED(deadline x1)"));
    }

    #[test]
    fn infinite_power_renders_empty() {
        let cfg = SimConfig {
            num_clients: 10,
            requests_per_mh: 15,
            ..SimConfig::for_scheme(Scheme::Conventional)
        };
        let row = Row::ok(
            Scheme::Conventional,
            None,
            Simulation::new(cfg).run().report,
        );
        let csv = to_csv(&[row]);
        // power_per_gch column (index 6) is empty, not "inf".
        let cells: Vec<&str> = csv.lines().nth(1).unwrap().split(',').collect();
        assert_eq!(cells[6], "");
    }
}
