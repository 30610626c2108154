from ..helpers import stamp

if __name__ == "__main__":
    print(stamp())
