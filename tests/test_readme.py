"""The README quick tour runs as written."""
import doctest
import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quick_tour():
    (block,) = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    test = doctest.DocTestParser().get_doctest(block, {}, "README.md", str(README), 0)
    assert test.examples
    runner = doctest.DocTestRunner(optionflags=doctest.ELLIPSIS)
    runner.run(test)
    result = runner.summarize(verbose=False)
    assert result.failed == 0, f"{result.failed} of {result.attempted} README examples failed"
