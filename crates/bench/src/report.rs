//! The one JSON writer behind the wall-clock benches in `benches/`.
//!
//! Every bench report has one shape: a top-level object written one field
//! per line, whose values are strings, numbers, flat objects written on
//! one line, or arrays of flat rows written one row per line. Numbers
//! carry the decimal count their field is committed with. In full mode
//! the report also goes to a `BENCH_*.json` file at the repository root,
//! committed so later changes have a baseline to diff against.

/// A JSON object under construction: keys in insertion order, each value
/// already rendered.
#[derive(Default)]
pub struct Json {
    fields: Vec<(String, String)>,
}

impl Json {
    /// An empty object.
    pub fn new() -> Self {
        Self::default()
    }

    /// A bench report, opening with its `bench` name and its `mode`
    /// (`smoke` or `full`).
    pub fn report(bench: &str, smoke: bool) -> Self {
        Self::new().str("bench", bench).str("mode", if smoke { "smoke" } else { "full" })
    }

    /// Add a string field.
    pub fn str(self, key: &str, value: &str) -> Self {
        let escaped = value.replace('\\', "\\\\").replace('"', "\\\"");
        self.field(key, format!("\"{escaped}\""))
    }

    /// Add an integer field.
    pub fn int(self, key: &str, value: u64) -> Self {
        self.field(key, value.to_string())
    }

    /// Add a number field with `decimals` digits after the point.
    pub fn num(self, key: &str, value: f64, decimals: usize) -> Self {
        self.field(key, format!("{value:.decimals$}"))
    }

    /// Add a flat object field, written on one line.
    pub fn object(self, key: &str, value: Json) -> Self {
        let line = value.line();
        self.field(key, line)
    }

    /// Add an array of flat rows, one row per line.
    pub fn rows(self, key: &str, rows: impl IntoIterator<Item = Json>) -> Self {
        let rows: Vec<String> = rows.into_iter().map(|r| r.line()).collect();
        self.field(key, format!("[\n    {}\n  ]", rows.join(",\n    ")))
    }

    fn field(mut self, key: &str, value: String) -> Self {
        self.fields.push((key.to_string(), value));
        self
    }

    /// `{"key": value, ...}` on one line.
    fn line(&self) -> String {
        let fields: Vec<String> =
            self.fields.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
        format!("{{{}}}", fields.join(", "))
    }

    /// The top-level rendering: one field per line, newline-terminated.
    fn render(&self) -> String {
        let fields: Vec<String> =
            self.fields.iter().map(|(k, v)| format!("  \"{k}\": {v}")).collect();
        format!("{{\n{}\n}}\n", fields.join(",\n"))
    }

    /// Print the report to stdout and, unless `smoke`, write it to `file`
    /// at the repository root.
    pub fn emit(&self, file: &str, smoke: bool) {
        let text = self.render();
        println!("{text}");
        if !smoke {
            let path = format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"));
            std::fs::write(&path, &text).unwrap_or_else(|e| panic!("write {path}: {e}"));
            eprintln!("wrote {path}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_the_committed_layout() {
        let row = |name: &str, rate: f64| Json::new().str("name", name).num("rate", rate, 1);
        let text = Json::report("demo", false)
            .int("cores", 2)
            .str("note", "a \"quoted\" word")
            .object("single", Json::new().num("ratio", 1.0 / 3.0, 3).int("n", 7))
            .rows("rows", [row("a", 1.26), row("b", 2.0)])
            .render();
        assert_eq!(
            text,
            "{\n  \"bench\": \"demo\",\n  \"mode\": \"full\",\n  \"cores\": 2,\n  \
             \"note\": \"a \\\"quoted\\\" word\",\n  \"single\": {\"ratio\": 0.333, \"n\": 7},\n  \
             \"rows\": [\n    {\"name\": \"a\", \"rate\": 1.3},\n    \
             {\"name\": \"b\", \"rate\": 2.0}\n  ]\n}\n"
        );
    }
}
