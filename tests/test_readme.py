"""The README's code runs as written."""
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_returns_records(capsys):
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    namespace: dict = {}
    exec(re.search(r"```python\n(.*?)```", section, re.S).group(1), namespace)
    assert namespace["result"].records and namespace["fixed"].records
    assert capsys.readouterr().out.count("RunRecord(") == len(namespace["result"].records)
