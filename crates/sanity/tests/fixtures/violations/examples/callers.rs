// Names every public item of this tree but the planted `never_called`, and
// `hidden_by_a_field` only as a field, which does not count for a fn.
fn main() {
    let _ = (&SLOT, fresh_panic(Some(1)), one_site(Some(2)));
    probe(&dataset());
    let _: Option<(EngineStats, EngineStatsSnapshot, RuntimeStatsSnapshot)> = None;
    build_plan();
    let _ = dataset().hidden_by_a_field;
}
