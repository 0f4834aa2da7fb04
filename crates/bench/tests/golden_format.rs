//! The golden format: a figure table round-trips through its text bit for
//! bit, and a comparison fails on a moved, a missing or an extra line,
//! naming only those lines.

use lsm_bench::figures::Table;
use lsm_bench::golden::diff;

/// A table of awkward cells: zero, sub-millisecond and large sim values,
/// labels with spaces and `%`, and a wall-clock column.
fn table() -> Table {
    Table {
        figure: "Figure 99a".into(),
        title: "edge cells: 0.1% selectivity, 2 x 15 records".into(),
        columns: ["variant", "0.001%", "1%", "count", "wall_s"]
            .map(String::from)
            .into(),
        rows: vec![
            (
                "batch/sLookup 50%".into(),
                vec![0.0, 0.000_123_456_789, 69_846_496_735.0, 1.5],
            ),
            (
                "no-pk-idx 0% dup".into(),
                vec![0.1 + 0.2, 3.5e-7, 2f64.powi(53) + 2.0, 0.25],
            ),
            ("-0".into(), vec![-0.0, f64::MIN_POSITIVE, 1.0 / 3.0, 7.0]),
        ],
        wall: vec![false, false, false, true],
    }
}

#[test]
fn a_table_round_trips_bit_for_bit() {
    let (a, b) = (
        table(),
        Table {
            figure: "Ablation 1".into(),
            ..table()
        },
    );
    let text = [a.tsv(), b.tsv()].join("\n");
    let back = Table::parse(&text).expect("parses");
    assert_eq!(back, vec![a.clone(), b], "every sim cell bit for bit");
    assert_eq!(
        back[0].tsv(),
        a.tsv(),
        "a second round trip writes the same text"
    );
}

#[test]
fn wall_clock_cells_are_written_as_placeholders_and_not_compared() {
    let text = table().tsv();
    for line in text.lines().skip(2) {
        assert!(line.ends_with("\t-"), "wall cell not a placeholder: {line}");
    }
    let mut other = table();
    other.rows[0].1[3] = 99.0;
    assert_eq!(other.tsv(), text, "a wall-clock cell moves no line");
    assert_eq!(table(), other, "nor does it make two tables differ");
    other.rows[0].1[1] = 0.000_123_456_788;
    assert_ne!(table(), other, "a sim cell does");
}

#[test]
fn malformed_text_is_an_error() {
    let text = table().tsv();
    for bad in [
        text.replacen("\t0\t", "\tzero\t", 1),
        text.replacen("\t0\t", "\t", 1),
        text.replacen("# Figure 99a: ", "# Figure 99a ", 1),
        text.replacen("Figure 99a\tno-pk", "Figure 98a\tno-pk", 1),
        text.lines().skip(1).collect::<Vec<_>>().join("\n"),
    ] {
        assert!(Table::parse(&bad).is_err(), "accepted:\n{bad}");
    }
}

#[test]
fn the_same_lines_in_any_order_match() {
    let text = table().tsv();
    let mut lines: Vec<&str> = text.lines().collect();
    lines.reverse();
    assert_eq!(diff(&text, &lines.join("\n")), None);
}

#[test]
fn a_moved_cell_names_only_its_row() {
    let text = table().tsv();
    let mut moved = table();
    moved.rows[1].1[1] = 3.6e-7;
    let report = diff(&text, &moved.tsv()).expect("a mismatch");
    let old = text.lines().nth(3).unwrap();
    let new = moved.tsv().lines().nth(3).unwrap().to_string();
    assert_eq!(report, format!("- {old}\n+ {new}\n"));
}

#[test]
fn a_missing_and_an_extra_line_each_fail_alone() {
    let text = table().tsv();
    let row = text.lines().nth(2).unwrap();
    let missing: Vec<&str> = text.lines().filter(|l| *l != row).collect();
    assert_eq!(diff(&text, &missing.join("\n")), Some(format!("- {row}\n")));
    let extra = format!("{text}Figure 99a\textra\t1\t2\t3\t-\n");
    assert_eq!(
        diff(&text, &extra),
        Some("+ Figure 99a\textra\t1\t2\t3\t-\n".to_string())
    );
    let doubled = format!("{text}{row}\n");
    assert_eq!(diff(&text, &doubled), Some(format!("+ {row}\n")));
}
