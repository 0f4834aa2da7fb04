// Names every public item of this tree but the planted `never_called`.
fn main() {
    let _ = (&SLOT, fresh_panic(Some(1)), one_site(Some(2)));
    probe(&dataset());
    let _: Option<(EngineStats, EngineStatsSnapshot, RuntimeStatsSnapshot)> = None;
    build_plan();
}
