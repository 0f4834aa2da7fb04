// Names every public item of this tree but the allowlisted `build_plan`.
fn main() {
    let counter: Option<Counter> = None;
    let _ = (counter, get(Some(1)));
    probe(&dataset());
    let _: Option<RuntimeStatsSnapshot> = None;
}
