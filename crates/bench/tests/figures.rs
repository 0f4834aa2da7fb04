//! Every figure of `lsm_bench::figures` runs at a small scale, returns
//! well-formed tables, and returns equal tables when run again: the
//! simulated clock makes every sim-time cell a function of the workload.
//! Figure 23 and Figure 14's `wall_s` column are wall-clock time, so they
//! are checked for shape only.

use lsm_bench::figures::{Table, FIGURES};

const SCALE: f64 = 0.01;

/// `tables` without their `wall_s` columns.
fn without_wall(mut tables: Vec<Table>) -> Vec<Table> {
    for table in &mut tables {
        if let Some(col) = table.columns.iter().position(|c| c == "wall_s") {
            for (_, values) in &mut table.rows {
                values.remove(col - 1);
            }
        }
    }
    tables
}

#[test]
fn every_figure_runs_well_formed_and_repeats() {
    for (name, run) in FIGURES {
        let tables = run(SCALE);
        assert!(!tables.is_empty(), "{name} returned no table");
        for table in &tables {
            let what = format!("{name} `{}: {}`", table.figure, table.title);
            assert!(!table.rows.is_empty(), "{what} has no rows");
            for (label, values) in &table.rows {
                assert_eq!(
                    values.len() + 1,
                    table.columns.len(),
                    "{what} row `{label}`: one value per column after the label"
                );
                assert!(
                    values.iter().all(|v| v.is_finite() && *v >= 0.0),
                    "{what} row `{label}` holds a negative or non-finite value: {values:?}"
                );
            }
        }
        if name != "fig23" {
            assert_eq!(
                without_wall(tables),
                without_wall(run(SCALE)),
                "{name} changed between two runs"
            );
        }
    }
}
