"""The README's library example runs as written on a small input."""

import json
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
INPUT_NAME = '"business.ndjson"'


def library_example() -> str:
    text = README.read_text(encoding="utf-8")
    section = text[text.index("\n## Library use\n"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs(tmp_path):
    names = {
        ("Phoenix", "AZ"): ["Desert Cafe", "Cactus Grill", "Common Pizza", "Common Pizza"],
        ("Henderson", "NV"): ["Neon Cafe", "Casino Grill", "Common Pizza"],
        ("Charlotte", "NC"): ["Queen Cafe", "Common Pizza"],
    }
    input_path = tmp_path / "business.ndjson"
    input_path.write_text("".join(
        json.dumps({"name": name, "city": city, "state": state,
                    "latitude": 33.4 + i, "longitude": -112.0 + i}) + "\n"
        for i, ((city, state), region_names) in enumerate(names.items())
        for name in region_names
    ), encoding="utf-8")
    code = library_example()
    # only the input path is replaced
    assert code.count(INPUT_NAME) == 1
    scope: dict = {}
    exec(code.replace(INPUT_NAME, repr(str(input_path))), scope)

    assert len(scope["records"]) == 9
    assert sorted(scope["tops"]) == sorted(scope["raw"]) == ["charlotte", "las vegas", "phoenix"]
    assert "desert" in [term for term, _ in scope["tops"]["phoenix"]]
    assert scope["sim"].values.shape == (3, 3)
    assert list(scope["pairs"].names()) == [("charlotte", "las vegas"), ("charlotte", "phoenix"),
                                            ("las vegas", "phoenix")]
    assert -1.0 <= scope["correlation"].coefficient <= 1.0
    assert 0.0 < scope["rank_correlation"].p_value <= 1.0
    assert 0.0 <= scope["fit"].r_squared <= 1.0
