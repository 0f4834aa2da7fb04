use std::sync::Mutex;

pub static SLOT: Mutex<u32> = Mutex::new(0);

pub fn fresh_panic(v: Option<u32>) -> u32 {
    v.unwrap()
}

pub fn probe(ds: &Dataset) {
    ds.crash_site("phantom_window");
}

pub fn never_called() {}

pub fn hidden_by_a_field() {}
