"""The README's config example runs, and its config reference matches the schema."""

import json
import re
from pathlib import Path

import pytest

from transfer_budget.cli import ABSENT, CONFIG, EXIT_OK, REQUIRED, ConfigError, RunSpec, main
from transfer_budget.trainer import SuiteConfig, TrainOptions

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
CELL = re.compile(r"^\|(.+)\|\s*$")


def example_config() -> dict:
    section = README[README.index("## Command line"):]
    return json.loads(re.search(r"```json\n(.*?)```", section, re.S).group(1))


def table_rows(header: str) -> list[list[str]]:
    """Cells of every row of the markdown table whose header row is ``header``."""
    lines = README[README.index(header):].splitlines()[2:]
    rows = []
    for line in lines:
        match = CELL.match(line)
        if not match:
            break
        rows.append([cell.strip() for cell in match.group(1).split("|")])
    return rows


def unquote(cell: str) -> str:
    assert cell.startswith("`") and cell.endswith("`"), cell
    return cell[1:-1]


FIELD_ROWS = table_rows("| field | type | bound | default |")
FAMILY_ROWS = table_rows("| kind | field | type | bound | default |")


def schema_fields(fields=CONFIG.fields, prefix=""):
    """(path, parser, default) for every field of the schema, objects included."""
    for key, (parser, default) in fields.items():
        path = prefix + key
        yield path, parser, default
        if hasattr(parser, "fields"):
            yield from schema_fields(parser.fields, path + ".")
        if hasattr(getattr(parser, "item", None), "fields"):
            yield from schema_fields(parser.item.fields, path + "[i].")


SCHEMA = {path: (parser, default) for path, parser, default in schema_fields()}
FAMILY_KINDS = CONFIG.fields["family"][0].kinds


def set_at(cfg: dict, path: str, value) -> None:
    keys = path.replace("[i]", ".0").split(".")
    target = cfg
    for key in keys[:-1]:
        target = target[int(key)] if isinstance(target, list) else target.setdefault(key, {})
    target[keys[-1]] = value


@pytest.mark.parametrize("command", ["plan", "curve"])
def test_example_config_runs(tmp_path, command):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(example_config()))
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == EXIT_OK


def test_every_schema_field_is_documented():
    assert [unquote(row[0]) for row in FIELD_ROWS] == list(SCHEMA)
    documented = [(unquote(kind), unquote(field)) for kind, field, *_ in FAMILY_ROWS]
    assert documented == [(kind, field) for kind, (_, fields) in FAMILY_KINDS.items()
                          for field in fields]


@pytest.mark.parametrize("row", FIELD_ROWS, ids=lambda row: row[0])
def test_documented_field_is_parsed_at_its_path(row):
    """A null in the field is rejected at exactly that field, not as unknown."""
    path = unquote(row[0])
    cfg = example_config()
    set_at(cfg, path, None)
    with pytest.raises(ConfigError) as error:
        RunSpec(cfg)
    assert error.value.path == path.replace("[i]", "[0]")
    assert not str(error.value).endswith("unknown field")


@pytest.mark.parametrize("row", FAMILY_ROWS, ids=lambda row: "-".join(row[:2]))
def test_documented_family_field_is_parsed_at_its_path(row):
    kind, field = unquote(row[0]), unquote(row[1])
    with pytest.raises(ConfigError) as error:
        RunSpec({"family": {"kind": kind, field: None}})
    assert error.value.path == f"family.{field}"
    assert FAMILY_KINDS[kind][1][field][1] == json.loads(unquote(row[4]))


@pytest.mark.parametrize("row", FIELD_ROWS, ids=lambda row: row[0])
def test_documented_default_is_the_default(row):
    path, cell = unquote(row[0]), row[3]
    parser, default = SCHEMA[path]
    if default is REQUIRED:
        assert cell == "required"
    elif default is not ABSENT:
        assert json.loads(unquote(cell)) == default
    elif path.startswith("trainer.") and path != "trainer.seeds":
        # absent trainer fields take the dataclass defaults
        name = path.removeprefix("trainer.").replace("stepnumber", "step_number")
        owner = SuiteConfig() if hasattr(SuiteConfig(), name) else TrainOptions()
        assert parser(json.loads(unquote(cell)), path) == getattr(owner, name)
    else:
        assert not cell.startswith("`"), "a fallback is not a JSON default"
