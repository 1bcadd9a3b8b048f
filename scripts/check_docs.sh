#!/usr/bin/env sh
# Docs-coverage gate: every field of bo::BoConfig must be mentioned, by
# name, somewhere a user would look — README.md, DESIGN.md,
# EXPERIMENTS.md, or docs/*.md — and every field row of
# docs/boconfig-reference.md must name a field BoConfig still has. The
# same holds one level down: every field of the nested option structs
# gp::TrainerOptions and acq::AcqOptOptions needs a `trainer.<field>` /
# `acq_opt.<field>` row there, and every such row must name a field its
# struct still has. Every session-config key parse_session_config
# accepts (the quoted keys of known_keys() in
# src/serve/session_config.cpp) must be named, in backquotes, in
# docs/service-protocol.md. Every trace counter the code emits under a
# literal name (obs::count(sink, "x.y", ...), add_counter("x.y", ...)
# under src/) must be named, in backquotes, in docs/metrics-schema.md, and
# every counter row there must name one the code still emits; a row with
# a <placeholder> (`bo.proposals.<acq>`, built at run time) names the
# literal prefix before it. Adding a knob, a wire key or a counter
# without documenting it, or removing one without dropping its row,
# fails CI. Run from anywhere; resolves paths relative to the repo root.
set -eu

root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
config="$root/src/bo/config.h"
reference="$root/docs/boconfig-reference.md"
session_config="$root/src/serve/session_config.cpp"
protocol="$root/docs/service-protocol.md"
docs="$root/README.md $root/DESIGN.md $root/EXPERIMENTS.md"
for f in "$root"/docs/*.md; do docs="$docs $f"; done

# Field names of struct $1 in header $2: member declarations between
# "struct $1 {" and the closing "};", excluding methods (lines containing
# "(" once trailing comments and initializers are stripped — a "(" in a
# comment or in "= std::log(1e-4)" is not a method).
struct_fields() {
  sed -n "/^struct $1 {/,/^};/p" "$2" \
    | sed -e 's://.*$::' -e 's:=.*$:=:' \
    | grep -v '(' \
    | grep -E '^\s+[A-Za-z_][A-Za-z0-9_:<>, ]*\s+[a-z_][a-z0-9_]*\s*(=|;)' \
    | sed -E 's/^\s+[A-Za-z_][A-Za-z0-9_:<>, ]*\s+([a-z_][a-z0-9_]*)\s*(=|;).*/\1/'
}

fields=$(struct_fields BoConfig "$config")

[ -n "$fields" ] || { echo "check_docs: failed to extract BoConfig fields from $config" >&2; exit 1; }

missing=0
for field in $fields; do
  # shellcheck disable=SC2086
  if ! grep -qw -- "$field" $docs; then
    echo "UNDOCUMENTED: BoConfig::$field is mentioned in none of: README.md, DESIGN.md, EXPERIMENTS.md, docs/*.md" >&2
    missing=$((missing + 1))
  fi
done

# Reference rows look like "| `field` | default | meaning |".
stale=0
for row in $(sed -n -E 's/^\| `([a-z_][a-z0-9_]*)` \|.*/\1/p' "$reference"); do
  # shellcheck disable=SC2086
  if ! printf '%s\n' $fields | grep -qx -- "$row"; then
    echo "STALE: docs/boconfig-reference.md documents BoConfig::$row, which BoConfig does not have" >&2
    stale=$((stale + 1))
  fi
done

# Nested option structs: BoConfig member $1 of type $2 declared in $3.
# Rows look like "| `trainer.max_iters` | default | meaning |".
nested_count=0
nested_missing=0
check_nested() {
  sub=$(struct_fields "$2" "$3")
  [ -n "$sub" ] || { echo "check_docs: failed to extract $2 fields from $3" >&2; exit 1; }
  for field in $sub; do
    nested_count=$((nested_count + 1))
    if ! grep -qF -- "| \`$1.$field\` |" "$reference"; then
      echo "UNDOCUMENTED: $2::$field has no \`$1.$field\` row in docs/boconfig-reference.md" >&2
      nested_missing=$((nested_missing + 1))
    fi
  done
  for row in $(sed -n -E "s/^\\| \`$1\\.([a-z_][a-z0-9_]*)\` \\|.*/\\1/p" "$reference"); do
    # shellcheck disable=SC2086
    if ! printf '%s\n' $sub | grep -qx -- "$row"; then
      echo "STALE: docs/boconfig-reference.md documents $1.$row, which $2 does not have" >&2
      stale=$((stale + 1))
    fi
  done
}
check_nested trainer TrainerOptions "$root/src/gp/trainer.h"
check_nested acq_opt AcqOptOptions "$root/src/acq/acq_optimizer.h"

# Session-config keys: the quoted strings between "known_keys() {" and
# the "return keys;" that closes the set.
keys=$(sed -n '/known_keys() {/,/return keys;/p' "$session_config" \
  | grep -o '"[a-z_][a-z0-9_]*"' | tr -d '"')

[ -n "$keys" ] || { echo "check_docs: failed to extract session-config keys from $session_config" >&2; exit 1; }

unnamed=0
for key in $keys; do
  if ! grep -qF -- "\`$key\`" "$protocol"; then
    echo "UNDOCUMENTED: session-config key \"$key\" is not named in docs/service-protocol.md" >&2
    unnamed=$((unnamed + 1))
  fi
done

# Trace counters: the first string literal of each count()/add_counter()
# call that holds a dotted name.
metrics="$root/docs/metrics-schema.md"
counters=$(grep -rhoE '(count|add_counter)\([^"]*"[a-z_]+\.[a-z_.]+"' "$root/src" \
  | sed -E 's/.*"([^"]+)"$/\1/' | sort -u)

[ -n "$counters" ] || { echo "check_docs: failed to extract counter names from src/" >&2; exit 1; }

uncounted=0
for name in $counters; do
  if ! grep -qF -- "\`$name\`" "$metrics"; then
    echo "UNDOCUMENTED: counter \"$name\" is not named in docs/metrics-schema.md" >&2
    uncounted=$((uncounted + 1))
  fi
done
# Counter rows look like "| `gp.chol_refactor` | emitter | meaning |".
for row in $(sed -n -E 's/^\| `([a-z_]+\.[a-z_.<>]+)` \|.*/\1/p' "$metrics"); do
  case "$row" in
    *'<'*) emitted=$(grep -rlF -- "\"${row%%<*}\"" "$root/src" || true) ;;
    *) emitted=$(printf '%s\n' $counters | grep -x -- "$row" || true) ;;
  esac
  if [ -z "$emitted" ]; then
    echo "STALE: docs/metrics-schema.md documents counter $row, which no code under src/ emits" >&2
    stale=$((stale + 1))
  fi
done

count=$(printf '%s\n' $fields | wc -l | tr -d ' ')
counter_count=$(printf '%s\n' $counters | wc -l | tr -d ' ')
key_count=$(printf '%s\n' $keys | wc -l | tr -d ' ')
if [ "$missing" -gt 0 ]; then
  echo "check_docs: $missing of $count BoConfig fields undocumented" >&2
fi
if [ "$nested_missing" -gt 0 ]; then
  echo "check_docs: $nested_missing of $nested_count nested fields have no docs/boconfig-reference.md row" >&2
fi
if [ "$stale" -gt 0 ]; then
  echo "check_docs: $stale documented rows name no existing field or counter" >&2
fi
if [ "$uncounted" -gt 0 ]; then
  echo "check_docs: $uncounted of $counter_count counters missing from docs/metrics-schema.md" >&2
fi
if [ "$unnamed" -gt 0 ]; then
  echo "check_docs: $unnamed of $key_count session-config keys missing from docs/service-protocol.md" >&2
fi
[ "$missing" -eq 0 ] && [ "$nested_missing" -eq 0 ] && [ "$stale" -eq 0 ] \
  && [ "$unnamed" -eq 0 ] && [ "$uncounted" -eq 0 ] || exit 1
echo "check_docs: all $count BoConfig fields, $nested_count nested, all $key_count session-config keys and all $counter_count counters are documented"
