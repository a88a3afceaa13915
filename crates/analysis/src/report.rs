//! Rendering helpers shared by the artifact renderer and the `cubie` CLI:
//! markdown tables, CSV output, scientific-notation formatting, and
//! geometric means.

use std::io::Write;
use std::path::Path;

/// Format a value in compact scientific notation (e.g. `3.12E-13`),
/// matching the paper's Table 6 style.
pub fn sci(v: f64) -> String {
    if v == 0.0 {
        return "0".to_string();
    }
    format!("{v:.2E}")
}

/// Format seconds with an adaptive unit.
pub fn seconds(v: f64) -> String {
    if v >= 1.0 {
        format!("{v:.3} s")
    } else if v >= 1e-3 {
        format!("{:.3} ms", v * 1e3)
    } else if v >= 1e-6 {
        format!("{:.3} µs", v * 1e6)
    } else {
        format!("{:.1} ns", v * 1e9)
    }
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of nothing");
    let s: f64 = values.iter().map(|v| v.ln()).sum();
    (s / values.len() as f64).exp()
}

/// Render a markdown table.
pub fn markdown_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.chars().count());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let padded: Vec<String> = cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:<w$}"))
            .collect();
        format!("| {} |\n", padded.join(" | "))
    };
    out.push_str(&fmt_row(
        &headers.iter().map(|h| h.to_string()).collect::<Vec<_>>(),
        &widths,
    ));
    let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    out.push_str(&format!("|-{}-|\n", sep.join("-|-")));
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
    }
    out
}

/// Write rows as CSV (simple quoting: fields containing commas or quotes
/// are quoted with doubled quotes).
pub fn write_csv(
    path: impl AsRef<Path>,
    headers: &[&str],
    rows: &[Vec<String>],
) -> std::io::Result<()> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    let quote = |s: &str| -> String {
        if s.contains(',') || s.contains('"') || s.contains('\n') {
            format!("\"{}\"", s.replace('"', "\"\""))
        } else {
            s.to_string()
        }
    };
    writeln!(
        f,
        "{}",
        headers
            .iter()
            .map(|h| quote(h))
            .collect::<Vec<_>>()
            .join(",")
    )?;
    for row in rows {
        writeln!(
            f,
            "{}",
            row.iter().map(|c| quote(c)).collect::<Vec<_>>().join(",")
        )?;
    }
    f.flush()
}

/// The output directory for harness results (`results/`, created on
/// demand next to the workspace root or the current directory).
pub fn results_dir() -> std::path::PathBuf {
    let dir = std::path::PathBuf::from("results");
    let _ = std::fs::create_dir_all(&dir);
    dir
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sci_formats() {
        assert_eq!(sci(0.0), "0");
        assert_eq!(sci(3.119e-13), "3.12E-13");
        assert_eq!(sci(1.0), "1.00E0");
    }

    #[test]
    fn seconds_units() {
        assert_eq!(seconds(2.5), "2.500 s");
        assert_eq!(seconds(2.5e-3), "2.500 ms");
        assert_eq!(seconds(2.5e-6), "2.500 µs");
        assert_eq!(seconds(2.5e-8), "25.0 ns");
    }

    #[test]
    fn geomean_of_reciprocals_is_one() {
        let g = geomean(&[2.0, 0.5, 4.0, 0.25]);
        assert!((g - 1.0).abs() < 1e-12);
    }

    #[test]
    fn markdown_table_shape() {
        let t = markdown_table(
            &["a", "bb"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[1].starts_with("|-"));
        assert!(lines[2].contains("| 1 "));
    }

    #[test]
    fn csv_quotes_commas() {
        let dir = std::env::temp_dir().join("cubie_csv_test.csv");
        write_csv(&dir, &["x"], &[vec!["a,b".into()]]).unwrap();
        let content = std::fs::read_to_string(&dir).unwrap();
        assert!(content.contains("\"a,b\""));
        let _ = std::fs::remove_file(&dir);
    }
}
