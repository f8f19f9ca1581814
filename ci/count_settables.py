#!/usr/bin/env python3
"""Count the settable values of the library and hold them under a ceiling.

Usage:
  python3 ci/count_settables.py [--root DIR] [--max N]
  python3 ci/count_settables.py --self-test

A settable value is a knob a caller can turn.  The count is:

  * every data member of a namespace-scope `struct ...Options`,
    `struct ...Config` or `struct ...Policy` in a header under src/
    (structs nested inside a class or struct are not counted), plus
  * every `Toolchain& With...(` setter declared in a header under src/.

The script prints each struct with its members, the setters and the total.
With --max N it exits 1 when the total is above N: a change that adds a
knob raises the ceiling in its own diff, next to the caller that needs it.

--self-test runs the parser over an inline header holding a method, a
comment line, a defaulted member, a nested struct and a setter, and checks
that it counts exactly what the rule says.
"""
import argparse
import os
import re
import sys

STRUCT_HEAD = re.compile(r"^(?:template\s*<[^{]*>\s*)?struct\s+"
                         r"(\w+(?:Options|Config|Policy))\s*$")
SETTER = re.compile(r"Toolchain&\s+(With\w+)\s*\(")
SKIPPED_STATEMENTS = ("using ", "static ", "friend ", "typedef ", "enum ",
                      "struct ", "class ")


def strip_comments_and_strings(text):
    """Blank out comments, preprocessor lines and string literals."""
    text = re.sub(r"/\*.*?\*/", lambda m: re.sub(r"[^\n]", " ", m.group(0)),
                  text, flags=re.S)
    text = re.sub(r"//[^\n]*", "", text)
    text = re.sub(r"(?m)^\s*#[^\n]*", "", text)  # preprocessor lines
    return re.sub(r'"(?:\\.|[^"\\\n])*"', '""', text)


def member_name(statement):
    """The declared name of a data-member statement, or None."""
    statement = re.sub(r"\b(?:public|private|protected)\s*:", "", statement)
    statement = " ".join(statement.split())
    if not statement or statement.startswith(SKIPPED_STATEMENTS):
        return None
    declarator = re.split(r"[={]", statement, maxsplit=1)[0]
    if "(" in declarator:
        return None  # a method or constructor declaration
    names = re.findall(r"[A-Za-z_]\w*", declarator.split("[")[0])
    return names[-1] if len(names) >= 2 else None


def parse_header(text):
    """[(struct name, [member names])] for the counted structs in `text`."""
    text = strip_comments_and_strings(text)
    structs = []
    # Scope stack entries: "namespace", "target", "body" (function body or
    # other scope) or "init" (a member's brace initializer).
    stack = []
    statement = ""
    for char in text:
        if char == "{":
            head = " ".join(statement.split())
            kind = "body"
            if re.match(r"^(?:inline\s+)?namespace\b", head) or \
                    head.startswith('extern ""'):
                kind = "namespace"
            elif all(scope == "namespace" for scope in stack):
                match = STRUCT_HEAD.match(head)
                if match:
                    kind = "target"
                    structs.append((match.group(1), []))
            elif stack and stack[-1] == "target" and "(" not in head and \
                    not head.startswith(("struct ", "class ", "enum ",
                                         "union ")):
                kind = "init"
            stack.append(kind)
            if kind != "init":
                statement = ""
            else:
                statement += char
        elif char == "}":
            kind = stack.pop() if stack else "body"
            if kind == "init":
                statement += char
            else:
                statement = ""
        elif char == ";":
            if stack and stack[-1] == "target":
                name = member_name(statement)
                if name is not None:
                    structs[-1][1].append(name)
            if not stack or stack[-1] != "init":
                statement = ""
            else:
                statement += char
        else:
            statement += char
    return structs


def parse_setters(text):
    return SETTER.findall(strip_comments_and_strings(text))


def count(root):
    """(structs, setters) over every header under root/src, sorted."""
    structs = []
    setters = []
    src = os.path.join(root, "src")
    for directory, _, files in sorted(os.walk(src)):
        for name in sorted(files):
            if not name.endswith(".hpp"):
                continue
            path = os.path.join(directory, name)
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
            relative = os.path.relpath(path, root)
            for struct, members in parse_header(text):
                structs.append((relative, struct, members))
            setters.extend((relative, setter)
                           for setter in parse_setters(text))
    return structs, setters


def report(structs, setters):
    total = sum(len(members) for _, _, members in structs) + len(setters)
    for path, struct, members in structs:
        print(f"{path}: {struct} ({len(members)}): {', '.join(members)}")
    print(f"Toolchain setters ({len(setters)}): "
          f"{', '.join(name for _, name in setters)}")
    print(f"settable values: {total}")
    return total


SELF_TEST_HEADER = """
#pragma once
namespace demo {
// struct CommentedOptions { int not_a_member = 1; };
struct DemoOptions {
  /// A comment line with a; semicolon.
  double rate = 0.5;  ///< defaulted member
  std::vector<std::pair<int, int>> pairs;
  std::string name{"x"};
  [[nodiscard]] bool Valid() const { return rate > 0.0; }
  static constexpr int kLimit = 4;
  struct Options {
    int nested_not_counted = 0;
  };
};
class Holder {
 public:
  struct Options { int nested = 0; };
  Toolchain& WithRate(double rate);
};
struct Unrelated { int not_counted = 0; };
}  // namespace demo
"""


def self_test():
    structs = parse_header(SELF_TEST_HEADER)
    setters = parse_setters(SELF_TEST_HEADER)
    expected = [("DemoOptions", ["rate", "pairs", "name"])]
    if structs != expected or setters != ["WithRate"]:
        print(f"count_settables: SELF-TEST FAIL: got {structs} and "
              f"{setters}, expected {expected} and ['WithRate']")
        return 1
    print("count_settables: self-test OK (members, methods, comments, "
          "nesting and setters)")
    return 0


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", default=".",
                        help="repository root (default: cwd)")
    parser.add_argument("--max", type=int, default=None,
                        help="exit 1 when the total is above this ceiling")
    parser.add_argument("--self-test", action="store_true",
                        help="check the parser on an inline header")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    total = report(*count(os.path.abspath(args.root)))
    if args.max is not None and total > args.max:
        print(f"count_settables: FAIL: {total} settable values, ceiling "
              f"{args.max}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
