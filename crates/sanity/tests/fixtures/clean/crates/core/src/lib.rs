use parking_lot::Mutex;

pub struct Counter {
    slot: Mutex<u32>,
}

pub fn get(v: Option<u32>) -> u32 {
    // INVARIANT: callers check `is_some` before calling.
    v.unwrap()
}

pub fn probe(ds: &Dataset) {
    ds.crash_site("win_a");
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_unwrap_freely() {
        Some(1).unwrap();
    }

    #[test]
    fn tests_may_create_files() {
        Storage::new(StorageOptions::test()).create_file();
    }
}
