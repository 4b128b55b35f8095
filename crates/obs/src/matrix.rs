//! Generic labelled matrix heat rendering.
//!
//! [`crate::heatmap`] is specialised to the oracle's stage × line counters;
//! this module renders *any* labelled rows × columns grid of `f64` values —
//! in particular the arena's defense × attack success-rate matrix — as an
//! ASCII grid or a self-contained SVG, following the same visual idiom.
//! Shading is relative to the **global** maximum (unlike the per-row
//! relative shading of the probe heatmap) because matrix cells share one
//! unit, e.g. a success rate in `[0, 1]`.

use std::fmt::Write as _;

/// A labelled rows × columns grid of values.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MatrixHeat {
    /// Title line rendered above the grid.
    pub title: String,
    /// Row labels (e.g. defense names), one per row of `values`.
    pub rows: Vec<String>,
    /// Column labels (e.g. attack variants), one per column of `values`.
    pub cols: Vec<String>,
    /// `values[row][col]`; rows shorter than `cols.len()` render the
    /// missing cells as empty.
    pub values: Vec<Vec<f64>>,
}

impl MatrixHeat {
    /// Largest finite value in the grid (`0` when empty).
    pub fn max_value(&self) -> f64 {
        self.values
            .iter()
            .flatten()
            .copied()
            .filter(|v| v.is_finite())
            .fold(0.0, f64::max)
    }

    fn is_empty(&self) -> bool {
        self.rows.is_empty() || self.cols.is_empty()
    }

    /// Renders the grid as ASCII: shaded cell art plus the exact values,
    /// one row per line.
    pub fn ascii(&self) -> String {
        const RAMP: &[u8] = b" .:-=+*#%@";
        let mut out = String::new();
        if self.is_empty() {
            out.push_str("empty matrix\n");
            return out;
        }
        let label_w = self.rows.iter().map(|r| r.len()).max().unwrap_or(0).max(4);
        let col_w = self.cols.iter().map(|c| c.len()).max().unwrap_or(0).max(6);
        let max = self.max_value().max(f64::MIN_POSITIVE);
        let _ = writeln!(
            out,
            "{} ('@' = global max {:.3})",
            self.title,
            self.max_value()
        );
        let _ = write!(out, "{:>label_w$} ", "");
        for col in &self.cols {
            let _ = write!(out, " {col:>col_w$}");
        }
        out.push('\n');
        for (ri, row) in self.rows.iter().enumerate() {
            let _ = write!(out, "{row:>label_w$} ");
            for ci in 0..self.cols.len() {
                match self.values.get(ri).and_then(|r| r.get(ci)) {
                    Some(&v) if v.is_finite() => {
                        let shade = if v <= 0.0 {
                            0
                        } else {
                            // Non-zero cells always render visibly.
                            let idx = (v / max * (RAMP.len() - 1) as f64).ceil();
                            (idx as usize).clamp(1, RAMP.len() - 1)
                        };
                        let _ =
                            write!(out, " {:>col_w$}", format!("{}{v:.3}", RAMP[shade] as char));
                    }
                    _ => {
                        let _ = write!(out, " {:>col_w$}", "-");
                    }
                }
            }
            out.push('\n');
        }
        out
    }

    /// Renders the grid as a self-contained SVG (no external fonts, scripts
    /// or styles): one shaded rectangle per cell with a `<title>` tooltip
    /// carrying the exact value.
    pub fn svg(&self) -> String {
        const CELL_W: usize = 88;
        const CELL_H: usize = 26;
        const TOP: usize = 48;
        let left = 14 + 7 * self.rows.iter().map(|r| r.len()).max().unwrap_or(4);
        let svg_w = left + self.cols.len() * CELL_W + 20;
        let svg_h = TOP + self.rows.len() * CELL_H + 40;
        let mut out = String::new();
        let _ = writeln!(
            out,
            r#"<svg xmlns="http://www.w3.org/2000/svg" width="{svg_w}" height="{svg_h}" viewBox="0 0 {svg_w} {svg_h}">"#
        );
        let _ = writeln!(
            out,
            r##"<rect width="{svg_w}" height="{svg_h}" fill="#ffffff"/>"##
        );
        let _ = writeln!(
            out,
            r#"<text x="{left}" y="20" font-family="monospace" font-size="13">{}</text>"#,
            xml_escape(&self.title)
        );
        for (ci, col) in self.cols.iter().enumerate() {
            let x = left + ci * CELL_W + CELL_W / 2;
            let _ = writeln!(
                out,
                r#"<text x="{x}" y="{}" font-family="monospace" font-size="10" text-anchor="middle">{}</text>"#,
                TOP - 6,
                xml_escape(col)
            );
        }
        let max = self.max_value().max(f64::MIN_POSITIVE);
        for (ri, row) in self.rows.iter().enumerate() {
            let y = TOP + ri * CELL_H;
            let _ = writeln!(
                out,
                r#"<text x="{}" y="{}" font-family="monospace" font-size="11" text-anchor="end">{}</text>"#,
                left - 8,
                y + CELL_H / 2 + 4,
                xml_escape(row)
            );
            for ci in 0..self.cols.len() {
                let x = left + ci * CELL_W;
                let v = self
                    .values
                    .get(ri)
                    .and_then(|r| r.get(ci))
                    .copied()
                    .filter(|v| v.is_finite());
                let t = v.map_or(0.0, |v| (v / max).clamp(0.0, 1.0));
                // White → deep red ramp, the heatmap's palette.
                let r = 255.0 - t * (255.0 - 177.0);
                let g = 255.0 - t * 255.0;
                let b = 255.0 - t * (255.0 - 38.0);
                let text = v.map_or("-".to_string(), |v| format!("{v:.3}"));
                let _ = writeln!(
                    out,
                    r##"<rect x="{x}" y="{y}" width="{CELL_W}" height="{CELL_H}" fill="rgb({},{},{})" stroke="#cccccc" stroke-width="0.5"><title>{} x {}: {text}</title></rect>"##,
                    r as u32,
                    g as u32,
                    b as u32,
                    xml_escape(row),
                    xml_escape(&self.cols[ci]),
                );
                let fill = if t > 0.55 { "#ffffff" } else { "#333333" };
                let _ = writeln!(
                    out,
                    r#"<text x="{}" y="{}" font-family="monospace" font-size="10" text-anchor="middle" fill="{fill}">{text}</text>"#,
                    x + CELL_W / 2,
                    y + CELL_H / 2 + 4,
                );
            }
        }
        let legend_y = TOP + self.rows.len() * CELL_H + 24;
        let _ = writeln!(
            out,
            r#"<text x="{left}" y="{legend_y}" font-family="monospace" font-size="10">shade = value relative to the global maximum; hover a cell for exact values</text>"#
        );
        out.push_str("</svg>\n");
        out
    }
}

/// Escapes `&`, `<` and `>` for SVG text; the matrix and trend SVG writers
/// share it.
pub(crate) fn xml_escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MatrixHeat {
        MatrixHeat {
            title: "success rate (defense x attack)".to_string(),
            rows: vec!["modulo".into(), "keyed-remap".into(), "partition".into()],
            cols: vec!["flush-reload".into(), "prime-probe".into()],
            values: vec![vec![1.0, 0.9], vec![0.2, 0.0], vec![0.0, 0.0]],
        }
    }

    #[test]
    fn ascii_renders_labels_and_exact_values() {
        let art = sample().ascii();
        assert!(art.contains("keyed-remap"));
        assert!(art.contains("flush-reload"));
        assert!(art.contains("@1.000"), "global max shades '@': {art}");
        assert!(art.contains(" 0.000"), "zeros shade blank: {art}");
        assert!(MatrixHeat::default().ascii().contains("empty matrix"));
    }

    #[test]
    fn svg_is_self_contained_with_one_rect_per_cell() {
        let m = sample();
        let svg = m.svg();
        assert!(svg.starts_with("<svg xmlns=\"http://www.w3.org/2000/svg\""));
        assert!(svg.trim_end().ends_with("</svg>"));
        assert_eq!(svg.matches("<rect x=").count(), 6);
        assert!(svg.contains("<title>keyed-remap x flush-reload: 0.200</title>"));
    }

    #[test]
    fn ragged_and_nonfinite_values_render_as_dashes() {
        let m = MatrixHeat {
            title: "t".into(),
            rows: vec!["a".into(), "b".into()],
            cols: vec!["x".into(), "y".into()],
            values: vec![vec![f64::NAN, 0.5]], // row "b" missing entirely
        };
        let art = m.ascii();
        assert!(art.contains('-'), "missing cells dash out: {art}");
        assert_eq!(m.max_value(), 0.5, "NaN ignored in the max");
        let svg = m.svg();
        assert!(svg.contains("<title>a x x: -</title>"));
    }

    #[test]
    fn labels_are_xml_escaped() {
        let m = MatrixHeat {
            title: "a<b & c>d".into(),
            rows: vec!["r<0>".into()],
            cols: vec!["c&c".into()],
            values: vec![vec![1.0]],
        };
        let svg = m.svg();
        assert!(svg.contains("a&lt;b &amp; c&gt;d"));
        assert!(!svg.contains("r<0>"));
    }
}
