//! Trend rendering: ledger series as terminal sparklines and
//! self-contained SVG charts.
//!
//! Both renderers read the same per-metric series the sentinel scores, so
//! "what the gate saw" and "what the chart shows" can never drift apart.
//! The SVG is dependency-free and viewer-portable: inline styles, one
//! `<polyline>` per metric, a dashed marker at a detected change point.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use super::sentinel::{analyze, SentinelConfig, SeriesVerdict};
use crate::matrix::xml_escape;

/// Unicode block levels, lowest to highest.
const SPARK_LEVELS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// Renders a series as a min–max normalized sparkline (one char per
/// point). A constant series renders at the lowest level; empty input
/// renders empty.
pub fn sparkline(values: &[f64]) -> String {
    let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
    for v in values {
        min = min.min(*v);
        max = max.max(*v);
    }
    let range = max - min;
    values
        .iter()
        .map(|v| {
            if range <= 0.0 {
                SPARK_LEVELS[0]
            } else {
                let t = (v - min) / range;
                let idx = (t * (SPARK_LEVELS.len() - 1) as f64).round() as usize;
                SPARK_LEVELS[idx.min(SPARK_LEVELS.len() - 1)]
            }
        })
        .collect()
}

/// One metric's row in a trend report: the series, its sparkline and the
/// sentinel's verdict (when the series is long enough to score).
#[derive(Clone, Debug)]
pub struct TrendRow {
    /// Metric name (`attack.encryptions`, `wall.recovery.wall_ns`, ...).
    pub metric: String,
    /// The full series, chronological.
    pub values: Vec<f64>,
    /// The sentinel's reading of the series, if scoreable.
    pub verdict: Option<SeriesVerdict>,
}

/// Scores every series and pairs it with its name, name-sorted (the
/// `BTreeMap` input fixes the order).
pub fn trend_rows(series: &BTreeMap<String, Vec<f64>>, cfg: &SentinelConfig) -> Vec<TrendRow> {
    series
        .iter()
        .map(|(metric, values)| TrendRow {
            metric: metric.clone(),
            values: values.clone(),
            verdict: analyze(values, cfg),
        })
        .collect()
}

/// Renders the terminal trend report for one producer: a sparkline per
/// metric with n/median/latest columns, flagged regressions and change
/// points called out on their own lines.
pub fn trend_report(name: &str, rows: &[TrendRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== trend: {name} ({} series) ==", rows.len());
    let width = rows.iter().map(|r| r.metric.len()).max().unwrap_or(0);
    for row in rows {
        let spark = sparkline(&row.values);
        let latest = row.values.last().copied().unwrap_or(0.0);
        let med = super::sentinel::median(&row.values);
        let _ = writeln!(
            out,
            "  {:width$}  {}  n={} median={} latest={}",
            row.metric,
            spark,
            row.values.len(),
            trim_float(med),
            trim_float(latest),
        );
        if let Some(verdict) = &row.verdict {
            if verdict.flagged {
                let _ = writeln!(
                    out,
                    "  {:width$}  ^ REGRESSION candidate: z={:.1} rel={:+.0}% vs window median {}",
                    "",
                    verdict.z,
                    verdict.rel_change * 100.0,
                    trim_float(verdict.baseline_median),
                );
            }
            if let Some(cp) = &verdict.change_point {
                let _ = writeln!(
                    out,
                    "  {:width$}  ^ change point at run {}: {} -> {} (score {:.1})",
                    "",
                    cp.index,
                    trim_float(cp.before_median),
                    trim_float(cp.after_median),
                    cp.score,
                );
            }
        }
    }
    out
}

/// Formats a value for the terminal: integers stay integral, everything
/// else gets 3 significant decimals.
fn trim_float(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v:.3}")
    }
}

/// Chart geometry shared by every row of the SVG.
const CHART_W: f64 = 560.0;
const CHART_H: f64 = 72.0;
const ROW_H: f64 = 110.0;
const MARGIN_L: f64 = 200.0;
const MARGIN_T: f64 = 40.0;

/// Renders every series as one self-contained SVG document: a labelled
/// polyline row per metric, a dashed vertical marker where the sentinel
/// saw a change point, and a red flag on a regressed latest point.
pub fn trend_svg(name: &str, rows: &[TrendRow]) -> String {
    let height = MARGIN_T + ROW_H * rows.len() as f64 + 20.0;
    let width = MARGIN_L + CHART_W + 40.0;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{width}\" height=\"{height}\" \
         viewBox=\"0 0 {width} {height}\" font-family=\"monospace\" font-size=\"12\">"
    );
    let _ = writeln!(
        out,
        "<text x=\"16\" y=\"24\" font-size=\"15\">trend: {}</text>",
        xml_escape(name)
    );
    for (i, row) in rows.iter().enumerate() {
        let top = MARGIN_T + ROW_H * i as f64;
        let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
        for v in &row.values {
            min = min.min(*v);
            max = max.max(*v);
        }
        if !min.is_finite() || !max.is_finite() {
            continue;
        }
        let range = if max > min { max - min } else { 1.0 };
        let x_at = |idx: usize| -> f64 {
            let n = row.values.len().max(2);
            MARGIN_L + CHART_W * idx as f64 / (n - 1) as f64
        };
        let y_at = |v: f64| -> f64 { top + CHART_H - CHART_H * (v - min) / range + 12.0 };

        let _ = writeln!(
            out,
            "<text x=\"16\" y=\"{}\">{}</text>",
            top + CHART_H / 2.0 + 12.0,
            xml_escape(&row.metric)
        );
        let _ = writeln!(
            out,
            "<rect x=\"{MARGIN_L}\" y=\"{}\" width=\"{CHART_W}\" height=\"{CHART_H}\" \
             fill=\"none\" stroke=\"#ccc\"/>",
            top + 12.0
        );
        let mut points = String::new();
        for (idx, v) in row.values.iter().enumerate() {
            let _ = write!(points, "{:.1},{:.1} ", x_at(idx), y_at(*v));
        }
        let _ = writeln!(
            out,
            "<polyline points=\"{}\" fill=\"none\" stroke=\"#2266cc\" stroke-width=\"1.5\"/>",
            points.trim_end()
        );
        if let Some(verdict) = &row.verdict {
            if let Some(cp) = &verdict.change_point {
                let x = x_at(cp.index);
                let _ = writeln!(
                    out,
                    "<line x1=\"{x:.1}\" y1=\"{}\" x2=\"{x:.1}\" y2=\"{}\" \
                     stroke=\"#cc7722\" stroke-dasharray=\"4 3\"/>",
                    top + 12.0,
                    top + CHART_H + 12.0
                );
                let _ = writeln!(
                    out,
                    "<text x=\"{:.1}\" y=\"{}\" fill=\"#cc7722\">cp@{}</text>",
                    x + 4.0,
                    top + 24.0,
                    cp.index
                );
            }
            if verdict.flagged {
                let idx = row.values.len() - 1;
                let _ = writeln!(
                    out,
                    "<circle cx=\"{:.1}\" cy=\"{:.1}\" r=\"4\" fill=\"#cc2222\"/>",
                    x_at(idx),
                    y_at(verdict.latest)
                );
            }
        }
        let _ = writeln!(
            out,
            "<text x=\"{}\" y=\"{}\" fill=\"#666\">min {} · max {}</text>",
            MARGIN_L,
            top + CHART_H + 28.0,
            trim_float(min),
            trim_float(max)
        );
    }
    out.push_str("</svg>\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparklines_normalize_min_max() {
        assert_eq!(sparkline(&[]), "");
        assert_eq!(sparkline(&[5.0, 5.0, 5.0]), "▁▁▁");
        let line = sparkline(&[0.0, 50.0, 100.0]);
        assert_eq!(line.chars().count(), 3);
        assert!(line.starts_with('▁') && line.ends_with('█'));
    }

    fn rows_for(series: &[(&str, Vec<f64>)]) -> Vec<TrendRow> {
        let map: BTreeMap<String, Vec<f64>> = series
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect();
        trend_rows(&map, &SentinelConfig::default())
    }

    #[test]
    fn report_marks_regressions_and_change_points() {
        let rows = rows_for(&[
            ("steady", vec![10.0, 10.5, 9.5, 10.0, 10.2, 9.9]),
            (
                "wall.run.wall_ns",
                vec![100.0, 101.0, 99.0, 100.0, 102.0, 300.0],
            ),
        ]);
        let report = trend_report("quickstart", &rows);
        assert!(report.contains("== trend: quickstart (2 series) =="));
        assert!(report.contains("steady"));
        assert!(report.contains("REGRESSION candidate"));
        // The steady row must not carry the regression marker.
        let steady_line = report
            .lines()
            .find(|l| l.contains("steady"))
            .unwrap()
            .to_string();
        assert!(!steady_line.contains("REGRESSION"));
    }

    #[test]
    fn svg_is_self_contained_and_marks_change_points() {
        let rows = rows_for(&[(
            "m",
            vec![
                100.0, 100.0, 100.0, 100.0, 100.0, 300.0, 300.0, 300.0, 300.0, 300.0,
            ],
        )]);
        let svg = trend_svg("arena", &rows);
        assert!(svg.starts_with("<svg xmlns="));
        assert!(svg.trim_end().ends_with("</svg>"));
        assert!(svg.contains("<polyline points="));
        assert!(svg.contains("cp@5"), "change point marked: {svg}");
        assert!(!svg.contains("href"), "no external references");
    }

    #[test]
    fn svg_escapes_metric_names() {
        let rows = rows_for(&[("a<b&c", vec![1.0, 2.0])]);
        let svg = trend_svg("x", &rows);
        assert!(svg.contains("a&lt;b&amp;c"));
    }
}
