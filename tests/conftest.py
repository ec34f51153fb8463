import os

import pytest


@pytest.fixture(autouse=True)
def no_child_process_is_left():
    """Every test reaps each process it starts: afterwards this process has no child, running or exited."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
