fn decode(bytes: &[u8]) -> u32 {
    // A decoder of device bytes that panics on a short read.
    u32::from_le_bytes(bytes.try_into().unwrap())
}

fn not_an_engine_site(ds: &Dataset) {
    ds.crash_site("btree_only_window");
}

fn fresh_file(storage: &Storage) -> FileId {
    storage.create_file()
}
