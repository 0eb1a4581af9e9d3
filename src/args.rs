//! The command line of `phylo-ooc`, `ooc-bench` and `ooc-serve`: each
//! binary is a table of [`Command`]s and a `main` that hands it to [`run`].
//!
//! Every subcommand declares its flags once, as a `&[Flag]` table: name,
//! type, default — a single value, or a paper-geometry / `--quick` pair —
//! and a help line. That one table parses the command line, backs the
//! typed accessors and prints `<program> <cmd> --help`, so a flag cannot
//! be read that was not declared, and the `--quick` geometry of an
//! experiment lives in one place.
//!
//! Parsing is strict: an unknown flag, a stray positional, a missing or
//! unparsable value is an error naming the flag and the valid set. A
//! results file must never claim a geometry the run silently did not use.

use std::collections::HashMap;

/// A flag's type and default.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// Bare `--flag`, off by default.
    Switch,
    /// Unsigned integer; the default at paper geometry and under `--quick`.
    Int(u64, u64),
    /// Floating-point number.
    Float(f64),
    /// Free text (an empty default reads as "not given").
    Text(&'static str),
}

/// One declared flag.
#[derive(Debug, Clone, Copy)]
pub struct Flag {
    /// Name without the leading `--`.
    pub name: &'static str,
    /// Type and default.
    pub kind: Kind,
    /// One help line.
    pub help: &'static str,
}

impl Flag {
    /// A bare switch.
    pub const fn switch(name: &'static str, help: &'static str) -> Flag {
        let kind = Kind::Switch;
        Flag { name, kind, help }
    }
    /// An integer with one default.
    pub const fn int(name: &'static str, default: u64, help: &'static str) -> Flag {
        Flag::int_q(name, default, default, help)
    }
    /// An integer whose default shrinks under `--quick`.
    pub const fn int_q(name: &'static str, full: u64, quick: u64, help: &'static str) -> Flag {
        let kind = Kind::Int(full, quick);
        Flag { name, kind, help }
    }
    /// A float.
    pub const fn float(name: &'static str, default: f64, help: &'static str) -> Flag {
        let kind = Kind::Float(default);
        Flag { name, kind, help }
    }
    /// A string.
    pub const fn text(name: &'static str, default: &'static str, help: &'static str) -> Flag {
        let kind = Kind::Text(default);
        Flag { name, kind, help }
    }
}

/// The flags every experiment shares.
pub const QUICK: Flag = Flag::switch("quick", "small smoke-run geometry");
/// See [`QUICK`].
pub const METRICS: Flag = Flag::text(
    "metrics",
    "",
    "stream observability records to FILE (JSONL)",
);

/// A parsed, validated command line.
#[derive(Debug, Clone, Default)]
pub struct Args {
    flags: &'static [Flag],
    given: HashMap<&'static str, String>,
    positional: Option<String>,
}

impl Args {
    /// Parse `tokens` against a flag table. `positional` names the one
    /// positional argument the command takes, if it takes one.
    pub fn parse(
        flags: &'static [Flag],
        positional: Option<&str>,
        tokens: &[String],
    ) -> Result<Args, String> {
        let mut args = Args {
            flags,
            ..Args::default()
        };
        let mut tokens = tokens.iter();
        while let Some(tok) = tokens.next() {
            let Some(name) = tok.strip_prefix("--") else {
                if positional.is_none() || args.positional.is_some() {
                    return Err(format!("unexpected argument '{tok}'"));
                }
                args.positional = Some(tok.clone());
                continue;
            };
            let flag = flags
                .iter()
                .find(|f| f.name == name)
                .ok_or_else(|| format!("unknown flag --{name}"))?;
            let value = match flag.kind {
                Kind::Switch => String::new(),
                _ => tokens
                    .next()
                    .filter(|v| !v.starts_with("--"))
                    .ok_or_else(|| format!("--{name} needs a value"))?
                    .clone(),
            };
            let well_formed = match flag.kind {
                Kind::Int(..) => value.parse::<u64>().is_ok(),
                Kind::Float(_) => value.parse::<f64>().is_ok_and(f64::is_finite),
                Kind::Switch | Kind::Text(_) => true,
            };
            if !well_formed {
                let expects = match flag.kind {
                    Kind::Int(..) => "an unsigned integer",
                    _ => "a finite number",
                };
                return Err(format!("--{name} expects {expects}, got '{value}'"));
            }
            args.given.insert(flag.name, value);
        }
        Ok(args)
    }

    fn kind(&self, name: &str) -> Kind {
        match self.flags.iter().find(|f| f.name == name) {
            Some(flag) => flag.kind,
            None => panic!("flag --{name} read but not declared by this command"),
        }
    }

    /// Was a bare switch given?
    pub fn flag(&self, name: &str) -> bool {
        assert_eq!(self.kind(name), Kind::Switch, "--{name} is not a switch");
        self.given.contains_key(name)
    }

    /// Was the flag on the command line at all (for flags whose absence
    /// means something other than their default)?
    pub fn given(&self, name: &str) -> bool {
        let _declared = self.kind(name);
        self.given.contains_key(name)
    }

    /// Integer value, or its default (the `--quick` one under `--quick`).
    pub fn u64(&self, name: &str) -> u64 {
        let Kind::Int(full, quick) = self.kind(name) else {
            panic!("--{name} is not an integer flag");
        };
        match self.given.get(name) {
            Some(v) => v.parse().expect("validated by parse"),
            None if self.given.contains_key("quick") => quick,
            None => full,
        }
    }

    /// [`Args::u64`] as a `usize`.
    pub fn usize(&self, name: &str) -> usize {
        self.u64(name) as usize
    }

    /// Float value or default.
    pub fn f64(&self, name: &str) -> f64 {
        let Kind::Float(default) = self.kind(name) else {
            panic!("--{name} is not a float flag");
        };
        self.given
            .get(name)
            .map_or(default, |v| v.parse().expect("validated by parse"))
    }

    /// String value or default.
    pub fn string(&self, name: &str) -> String {
        let Kind::Text(default) = self.kind(name) else {
            panic!("--{name} is not a text flag");
        };
        self.given
            .get(name)
            .cloned()
            .unwrap_or_else(|| default.to_owned())
    }

    /// The positional argument, if one was given.
    pub fn positional(&self) -> Option<&str> {
        self.positional.as_deref()
    }
}

/// The `--help` text of a flag table.
pub fn help(flags: &[Flag]) -> String {
    let mut out = String::new();
    for f in flags {
        let (value, default) = match f.kind {
            Kind::Switch => ("", String::new()),
            Kind::Int(full, quick) if full == quick => (" N", format!(" [{full}]")),
            Kind::Int(full, quick) => (" N", format!(" [{full}; --quick {quick}]")),
            Kind::Float(x) => (" X", format!(" [{x}]")),
            Kind::Text("") => (" S", String::new()),
            Kind::Text(s) => (" S", format!(" [{s}]")),
        };
        out.push_str(&format!(
            "  {:<22} {}{default}\n",
            format!("--{}{value}", f.name),
            f.help
        ));
    }
    out
}

/// One subcommand of a binary.
pub struct Command {
    /// Name as typed (one word, or two as in `ablation mcmc`).
    pub name: &'static str,
    /// One-line description.
    pub about: &'static str,
    /// Every flag the command reads.
    pub flags: &'static [Flag],
    /// Name of its positional argument, if it takes one.
    pub positional: Option<&'static str>,
    /// Run it; `Err` is a failed run (exit code 1).
    pub run: fn(&Args) -> Result<(), String>,
}

/// Top-level usage text of a binary.
pub fn usage(program: &str, about: &str, commands: &[&Command]) -> String {
    let mut out = format!(
        "{program} — {about}\n\nUSAGE:\n  {program} <command> [flags]     \
         ({program} <command> --help lists them)\n\n"
    );
    let width = commands.iter().map(|c| c.name.len()).max().unwrap_or(0);
    for cmd in commands {
        out.push_str(&format!("  {:<width$}  {}\n", cmd.name, cmd.about));
    }
    out
}

/// Run `program` with `tokens` (the command line without the program
/// name) and return its exit code: 0 on success (asking for help is one),
/// 1 when the command fails, 2 when the command line is not understood —
/// before anything runs.
pub fn run(program: &str, about: &str, commands: &[&Command], tokens: &[String]) -> i32 {
    let wants_help = |t: &[String]| t.iter().any(|t| t == "--help" || t == "-h");
    let typed = commands.iter().find_map(|cmd| {
        let words = cmd.name.split(' ').count();
        (tokens.get(..words)?.join(" ") == cmd.name).then(|| (cmd, &tokens[words..]))
    });
    let Some((cmd, rest)) = typed else {
        if wants_help(tokens) || tokens.first().is_some_and(|t| t == "help") {
            print!("{}", usage(program, about, commands));
            return 0;
        }
        if let Some(typed) = tokens.first() {
            eprintln!("{program}: unknown command '{typed}'");
        }
        eprint!("{}", usage(program, about, commands));
        return 2;
    };
    if wants_help(rest) {
        println!("{program} {} — {}\n", cmd.name, cmd.about);
        print!("{}", help(cmd.flags));
        return 0;
    }
    // Strict: a typo must not silently run a default.
    let args = match Args::parse(cmd.flags, cmd.positional, rest) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{program} {}: {e}", cmd.name);
            eprint!("valid flags:\n{}", help(cmd.flags));
            return 2;
        }
    };
    match (cmd.run)(&args) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("{program} {}: {e}", cmd.name);
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FLAGS: &[Flag] = &[
        QUICK,
        Flag::int_q("taxa", 1288, 160, "taxa"),
        Flag::int("seed", 7, "seed"),
        Flag::float("fraction", 0.25, "f"),
        Flag::text("out", "x.json", "out"),
        Flag::switch("verbose", "v"),
    ];

    fn parse(s: &str) -> Result<Args, String> {
        let tokens: Vec<String> = s.split_whitespace().map(|t| t.to_owned()).collect();
        Args::parse(FLAGS, None, &tokens)
    }

    #[test]
    fn key_values_and_flags() {
        let a = parse("--taxa 128 --quick --out results.json").unwrap();
        assert_eq!(a.usize("taxa"), 128);
        assert!(a.flag("quick"));
        assert!(!a.flag("verbose"));
        assert_eq!(a.string("out"), "results.json");
    }

    #[test]
    fn defaults_kick_in_and_follow_quick() {
        let a = parse("").unwrap();
        assert_eq!(a.usize("taxa"), 1288);
        assert_eq!(a.f64("fraction"), 0.25);
        assert_eq!(a.u64("seed"), 7);
        assert_eq!(a.string("out"), "x.json");
        let q = parse("--quick").unwrap();
        assert_eq!(q.usize("taxa"), 160);
        assert_eq!(q.u64("seed"), 7);
        assert_eq!(parse("--quick --taxa 9").unwrap().usize("taxa"), 9);
    }

    #[test]
    fn what_is_not_understood_is_refused() {
        // A typo must not silently run the default experiment.
        assert!(parse("--sedd 7")
            .unwrap_err()
            .contains("unknown flag --sedd"));
        assert!(parse("--taxa 1e3").unwrap_err().contains("--taxa expects"));
        assert!(parse("--taxa -4").unwrap_err().contains("--taxa expects"));
        assert!(parse("--fraction abc").unwrap_err().contains("--fraction"));
        assert!(parse("--fraction NaN").unwrap_err().contains("--fraction"));
        assert!(parse("--taxa").unwrap_err().contains("needs a value"));
        assert!(parse("--taxa --verbose")
            .unwrap_err()
            .contains("needs a value"));
        assert!(parse("stray").unwrap_err().contains("unexpected argument"));
        assert!(
            parse("--verbose").unwrap().flag("verbose"),
            "trailing switch"
        );
    }

    #[test]
    fn one_positional_where_declared() {
        let tokens = |s: &str| -> Vec<String> { s.split(' ').map(|t| t.to_owned()).collect() };
        let a = Args::parse(FLAGS, Some("FILE"), &tokens("--quick m.jsonl")).unwrap();
        assert_eq!(a.positional(), Some("m.jsonl"));
        assert!(Args::parse(FLAGS, Some("FILE"), &tokens("a b")).is_err());
    }

    #[test]
    fn help_lists_every_flag_with_its_defaults() {
        let text = help(FLAGS);
        for f in FLAGS {
            assert!(text.contains(&format!("--{}", f.name)), "{text}");
        }
        assert!(text.contains("[1288; --quick 160]"), "{text}");
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_reads_are_bugs() {
        parse("").unwrap().usize("sites");
    }
}
