//! Plain-text table rendering shared by the experiment drivers, and the
//! verdict every paper claim returns.

/// A paper claim judged on one run: the value it reads and whether the
/// claim holds. Each "Paper:" line of EXPERIMENTS.md has one function
/// returning this, beside the render of its artifact.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Claim {
    /// The value the claim judges.
    pub value: f64,
    /// Whether the claim holds.
    pub holds: bool,
}

impl Claim {
    /// A claim whose cells are missing: nothing to judge, so it fails.
    pub const MISSING: Claim = Claim::new(f64::NAN, false);

    /// The verdict on `value`.
    pub const fn new(value: f64, holds: bool) -> Claim {
        Claim { value, holds }
    }
}

/// Renders a table: header row plus data rows, columns padded to fit.
pub fn render_table(title: &str, header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    let line = |cells: &[String], widths: &[usize]| -> String {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            let w = widths.get(i).copied().unwrap_or(c.len());
            s.push_str(&format!("{c:>w$}  "));
        }
        s.trim_end().to_string()
    };
    let header_cells: Vec<String> = header.iter().map(|h| h.to_string()).collect();
    out.push_str(&line(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
    out.push('\n');
    for row in rows {
        out.push_str(&line(row, &widths));
        out.push('\n');
    }
    out
}

/// Formats a float with sensible precision for tables.
pub fn fmt(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 100.0 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.2e}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_table() {
        let s = render_table(
            "Demo",
            &["name", "value"],
            &[
                vec!["a".into(), "1".into()],
                vec!["long-name".into(), "2.5".into()],
            ],
        );
        assert!(s.contains("Demo"));
        assert!(s.contains("long-name"));
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines.len() >= 4);
    }

    #[test]
    fn fmt_ranges() {
        assert_eq!(fmt(0.0), "0");
        assert_eq!(fmt(123.4), "123");
        assert_eq!(fmt(1.5), "1.50");
        assert_eq!(fmt(0.0032), "3.20e-3");
    }
}
