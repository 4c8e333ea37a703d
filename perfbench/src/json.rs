//! Response bodies are read with the program's own JSON parser, which
//! parses numbers with `str::parse::<f64>`, so probabilities keep their
//! exact bits. `Field` adds keyed accessors.

pub use telemetry::json::{parse, Json};

pub trait Field {
    fn f64(&self, key: &str) -> Option<f64>;
    fn u64(&self, key: &str) -> Option<u64>;
    fn str(&self, key: &str) -> Option<&str>;
    fn arr(&self, key: &str) -> Option<&[Json]>;
}

impl Field for Json {
    fn f64(&self, key: &str) -> Option<f64> {
        self.get(key)?.as_f64()
    }

    fn u64(&self, key: &str) -> Option<u64> {
        self.get(key)?.as_u64()
    }

    fn str(&self, key: &str) -> Option<&str> {
        self.get(key)?.as_str()
    }

    fn arr(&self, key: &str) -> Option<&[Json]> {
        self.get(key)?.as_arr()
    }
}
