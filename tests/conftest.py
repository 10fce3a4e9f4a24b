"""Shared fixtures."""

import pytest

from repro.cli import main


@pytest.fixture(scope="session")
def cli_workspace(tmp_path_factory):
    """A generated domain plus a trained model, built once through the
    real CLI entry point and shared by the CLI durability and guardrail
    tests."""
    root = tmp_path_factory.mktemp("cli-durability")
    data = root / "data"
    model = root / "model.lsd"
    assert main(["generate", "--domain", "real_estate_1",
                 "--out", str(data), "--listings", "20",
                 "--seed", "7"]) == 0
    assert main(["train", "--mediated", str(data / "mediated.dtd"),
                 "--train", str(data / "homeseekers.com"),
                 str(data / "yahoo-homes.com"),
                 "--constraints", str(data / "constraints.txt"),
                 "--model", str(model), "--max-instances", "20"]) == 0
    return root
