"""The function-reach map of ``tools/line_map.py``."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "line_map.py"

MODULE = '''\
def called():
    return 1


def uncalled():
    return 2


class Box:
    def used(self):
        return 3

    @property
    def unused(self):
        return 4
'''


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_unreached_functions_lists_only_the_uncalled(tmp_path):
    line_map = _load("line_map", TOOL)
    (tmp_path / "mod.py").write_text(MODULE)
    (tmp_path / "notes.txt").write_text("def ignored(): pass\n")

    def run():
        mod = _load("throwaway_mod", tmp_path / "mod.py")
        mod.called()
        mod.Box().used()

    unreached = line_map.unreached_functions(str(tmp_path), run)
    assert list(unreached) == ["mod.py"]
    assert [name.rpartition(".")[2] for _, name in unreached["mod.py"]] == \
        ["uncalled", "unused"]
