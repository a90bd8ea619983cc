//! Modules: ordered collections of functions from one source.
//!
//! A [`Module`] is the unit the batch driver operates on — every `fn` of
//! one `.lcm` file, in source order. Function names are unique within a
//! module so per-function results can be reported unambiguously.

use std::collections::hash_map::{Entry, HashMap};
use std::fmt;

use crate::function::Function;
use crate::profile::Profile;

/// An ordered collection of functions with unique names, plus optional
/// per-function edge [`Profile`]s.
///
/// Round-trips through the textual format: `Display` prints each function
/// separated by a blank line, followed by the profile sections, and
/// [`parse_module`](crate::parse_module) reads the same shape back.
///
/// # Example
///
/// ```
/// let m = lcm_ir::parse_module(
///     "fn a {\nentry:\n  x = p + q\n  ret\n}\n\nfn b {\nentry:\n  ret\n}",
/// )?;
/// assert_eq!(m.len(), 2);
/// let reparsed = lcm_ir::parse_module(&m.to_string())?;
/// assert_eq!(m, reparsed);
/// # Ok::<(), lcm_ir::ParseError>(())
/// ```
#[derive(Clone, Default)]
pub struct Module {
    functions: Vec<Function>,
    /// Per function, the raw text of its `fn` section when it came from
    /// [`parse_module`](crate::parse_module); `None` otherwise.
    sources: Vec<Option<Box<str>>>,
    profiles: Vec<Profile>,
    /// Function name → (function index, profile index), so name lookups
    /// stay O(1) however large the module grows.
    by_name: HashMap<String, (usize, Option<usize>)>,
}

/// Equality is over the functions and profiles only: the recorded sources
/// are a cache of where the functions came from, so a parsed module equals
/// its printed-and-reparsed self and an API-built twin.
impl PartialEq for Module {
    fn eq(&self, other: &Self) -> bool {
        self.functions == other.functions && self.profiles == other.profiles
    }
}

impl fmt::Debug for Module {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Module")
            .field("functions", &self.functions)
            .field("profiles", &self.profiles)
            .finish_non_exhaustive()
    }
}

impl Module {
    /// Creates a module from `functions`.
    ///
    /// # Panics
    ///
    /// Panics if two functions share a name; use [`Module::push`] to handle
    /// clashes gracefully.
    pub fn new(functions: Vec<Function>) -> Self {
        let mut m = Module::default();
        for f in functions {
            let name = f.name.clone();
            assert!(m.push(f).is_ok(), "duplicate function `{name}` in module");
        }
        m
    }

    /// Appends `f`, rejecting it (returned unchanged, boxed to keep the
    /// error small) if a function with the same name is already present.
    pub fn push(&mut self, f: Function) -> Result<(), Box<Function>> {
        self.push_with_source(f, None)
    }

    /// [`Module::push`], recording `source` as the function's text.
    pub(crate) fn push_with_source(
        &mut self,
        f: Function,
        source: Option<Box<str>>,
    ) -> Result<(), Box<Function>> {
        match self.by_name.entry(f.name.clone()) {
            Entry::Occupied(_) => Err(Box::new(f)),
            Entry::Vacant(slot) => {
                slot.insert((self.functions.len(), None));
                self.functions.push(f);
                self.sources.push(source);
                Ok(())
            }
        }
    }

    /// Attaches an edge profile, rejecting it (returned unchanged, boxed to
    /// keep the error small) if the module has no function with the
    /// profile's name or that function already has a profile. The profile's
    /// consistency against the function is *not* checked here; see
    /// [`Profile::resolve`].
    pub fn push_profile(&mut self, p: Profile) -> Result<(), Box<Profile>> {
        match self.by_name.get_mut(&p.function) {
            Some((_, slot @ None)) => {
                *slot = Some(self.profiles.len());
                self.profiles.push(p);
                Ok(())
            }
            _ => Err(Box::new(p)),
        }
    }

    /// The functions in source order.
    pub fn functions(&self) -> &[Function] {
        &self.functions
    }

    /// The raw text of function `i`'s `fn` section — its header line
    /// through its closing `}` line — when the module was read by
    /// [`parse_module`](crate::parse_module); `None` for a function added
    /// through [`Module::new`] or [`Module::push`], or out of range.
    /// Parsing a section depends on its bytes alone, so equal sources
    /// parse to equal functions.
    pub fn source(&self, i: usize) -> Option<&str> {
        self.sources.get(i)?.as_deref()
    }

    /// Takes the module apart: each function in source order, moved out
    /// with its [`Module::source`] text. The profiles are dropped; look
    /// them up by name first.
    pub fn into_sections(self) -> impl Iterator<Item = (Function, Option<Box<str>>)> {
        self.functions.into_iter().zip(self.sources)
    }

    /// The profiles in source order.
    pub fn profiles(&self) -> &[Profile] {
        &self.profiles
    }

    /// Looks up the profile attached to function `name`, if any.
    pub fn profile(&self, name: &str) -> Option<&Profile> {
        let (_, p) = self.by_name.get(name)?;
        p.map(|p| &self.profiles[p])
    }

    /// Looks up a function by name.
    pub fn get(&self, name: &str) -> Option<&Function> {
        self.by_name.get(name).map(|&(i, _)| &self.functions[i])
    }

    /// Number of functions.
    pub fn len(&self) -> usize {
        self.functions.len()
    }

    /// Whether the module has no functions.
    pub fn is_empty(&self) -> bool {
        self.functions.is_empty()
    }

    /// Iterates over the functions in source order.
    pub fn iter(&self) -> std::slice::Iter<'_, Function> {
        self.functions.iter()
    }
}

impl<'a> IntoIterator for &'a Module {
    type Item = &'a Function;
    type IntoIter = std::slice::Iter<'a, Function>;

    fn into_iter(self) -> Self::IntoIter {
        self.functions.iter()
    }
}

impl fmt::Display for Module {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, func) in self.functions.iter().enumerate() {
            if i > 0 {
                write!(f, "\n\n")?;
            }
            write!(f, "{func}")?;
        }
        for p in &self.profiles {
            write!(f, "\n\n{p}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_module;

    const TWO: &str = "fn first {
entry:
  x = a + b
  br x, l, r
l:
  jmp r
r:
  obs x
  ret
}

fn second {
entry:
  y = a * 2
  obs y
  ret
}";

    #[test]
    fn round_trips_two_functions() {
        let m = parse_module(TWO).unwrap();
        assert_eq!(m.len(), 2);
        assert_eq!(m.functions()[0].name, "first");
        assert_eq!(m.get("second").unwrap().num_blocks(), 1);
        let printed = m.to_string();
        let again = parse_module(&printed).unwrap();
        assert_eq!(m, again);
        assert_eq!(printed, again.to_string());
    }

    #[test]
    fn single_function_module_matches_parse_function() {
        let one = "fn solo {\nentry:\n  x = a + b\n  ret\n}";
        let m = parse_module(one).unwrap();
        let f = crate::parse_function(one).unwrap();
        assert_eq!(m.functions(), std::slice::from_ref(&f));
    }

    #[test]
    fn rejects_duplicate_function_names() {
        let text = format!("{TWO}\n\nfn first {{\nentry:\n  ret\n}}");
        let e = parse_module(&text).unwrap_err();
        assert!(e.message.contains("duplicate function `first`"), "{e}");
        // Anchored at the offending header, file-relative.
        assert_eq!(e.line, 19);
    }

    #[test]
    fn module_errors_are_file_relative() {
        // Error inside the second function reports absolute positions.
        let text = "fn a {\nentry:\n  ret\n}\nfn b {\nentry:\n  x = a +\n  ret\n}";
        let e = parse_module(text).unwrap_err();
        assert_eq!((e.line, e.col), (7, 10));
    }

    #[test]
    fn rejects_empty_module() {
        assert!(parse_module("  # only a comment\n").is_err());
    }

    #[test]
    fn profiles_attach_and_round_trip() {
        let mut m = parse_module(TWO).unwrap();
        let f = m.get("first").unwrap();
        // Edges of `first`: entry->l, entry->r, l->r; flow conserves at `l`.
        let p = crate::Profile::from_weights(f, &[5, 3, 5]);
        assert!(m.push_profile(p.clone()).is_ok());
        // One profile per function, and only for functions that exist.
        assert!(m.push_profile(p.clone()).is_err());
        let mut stray = p.clone();
        stray.function = "nonexistent".into();
        assert!(m.push_profile(stray).is_err());
        assert_eq!(m.profile("first"), Some(&p));
        assert_eq!(m.profile("second"), None);
        let printed = m.to_string();
        let again = parse_module(&printed).unwrap();
        assert_eq!(m, again);
        assert_eq!(printed, again.to_string());
    }

    #[test]
    fn records_each_function_section_verbatim() {
        // Comments and blank lines between sections belong to no function;
        // a comment on a section's own lines is part of its bytes.
        let text = format!("# lead\n\n{TWO}   # trailing\n\n# tail\n");
        let m = parse_module(&text).unwrap();
        assert!(m.source(0).unwrap().starts_with("fn first {\nentry:"));
        assert!(m.source(0).unwrap().ends_with("  ret\n}"));
        assert_eq!(
            m.source(1).unwrap(),
            "fn second {\nentry:\n  y = a * 2\n  obs y\n  ret\n}   # trailing"
        );
        assert_eq!(m.source(2), None);
        // Equal sources parse to equal functions, whatever surrounds them.
        for (i, f) in m.iter().enumerate() {
            assert_eq!(&crate::parse_function(m.source(i).unwrap()).unwrap(), f);
        }
        // CRLF input keeps its `\r`s inside the section.
        let crlf = parse_module("fn solo {\r\nentry:\r\n  ret\r\n}\r\n").unwrap();
        assert_eq!(crlf.source(0), Some("fn solo {\r\nentry:\r\n  ret\r\n}\r"));
        // API-built functions have no source, and sources never affect
        // equality.
        let built = Module::new(m.functions().to_vec());
        assert_eq!(built.source(0), None);
        assert_eq!(built, parse_module(TWO).unwrap());
    }

    #[test]
    fn into_sections_yields_each_function_with_its_source() {
        let text = format!("{TWO}\n\nprofile second {{\n}}\n");
        let parsed = parse_module(&text).unwrap();
        let built = Module::new(parsed.functions().to_vec());
        for (m, from_text) in [(parsed, true), (built, false)] {
            let want: Vec<_> = (0..m.len())
                .map(|i| (m.functions()[i].clone(), m.source(i).map(Box::from)))
                .collect();
            assert!(want.iter().all(|(_, s)| s.is_some() == from_text));
            assert_eq!(m.into_sections().collect::<Vec<_>>(), want);
        }
    }

    #[test]
    fn name_lookups_scale_to_huge_modules() {
        // Pushing, and so parsing, used to scan every earlier function for
        // a name clash: quadratic in the module's size.
        let n = 50_000;
        let mut text = String::new();
        for i in 0..n {
            text.push_str(&format!("fn f{i} {{\nentry:\n  ret\n}}\n"));
        }
        text.push_str("profile f7 {\n}\n");
        let start = std::time::Instant::now();
        let m = parse_module(&text).unwrap();
        let elapsed = start.elapsed();
        assert_eq!(m.len(), n);
        assert_eq!(m.get("f49999").unwrap().name, "f49999");
        assert!(m.profile("f7").is_some() && m.profile("f8").is_none());
        assert!(
            elapsed < std::time::Duration::from_secs(5),
            "parsing {n} functions took {elapsed:?}"
        );
    }

    #[test]
    fn push_rejects_name_clash() {
        let one = "fn solo {\nentry:\n  ret\n}";
        let f = crate::parse_function(one).unwrap();
        let mut m = Module::default();
        assert!(m.push(f.clone()).is_ok());
        assert_eq!(
            m.push(f),
            Err(Box::new(crate::parse_function(one).unwrap()))
        );
    }
}
